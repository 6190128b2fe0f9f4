package saintetiq

import (
	"fmt"
	"slices"
)

// Merging of summary hierarchies (CIKM'07 [27], paper §6.1.1): the leaves of
// the source hierarchy are incorporated into the destination using the
// regular summarization service, so the complexity of Merging(S1, S2)
// depends on the number of leaves of S1 — which is bounded by the BK grid —
// and not on the number of raw tuples.

// CompatibleWith reports whether two trees share the same attribute
// vocabularies (a Common Background Knowledge), which merging requires.
func (t *Tree) CompatibleWith(o *Tree) error {
	if len(t.attrs) != len(o.attrs) {
		return fmt.Errorf("saintetiq: merging %d-attr tree with %d-attr tree", len(o.attrs), len(t.attrs))
	}
	for a := range t.attrs {
		if t.attrs[a].name != o.attrs[a].name {
			return fmt.Errorf("saintetiq: attribute %d is %q vs %q", a, t.attrs[a].name, o.attrs[a].name)
		}
		if len(t.attrs[a].labels) != len(o.attrs[a].labels) {
			return fmt.Errorf("saintetiq: attribute %q has %d vs %d labels", t.attrs[a].name, len(t.attrs[a].labels), len(o.attrs[a].labels))
		}
		for j := range t.attrs[a].labels {
			if t.attrs[a].labels[j] != o.attrs[a].labels[j] {
				return fmt.Errorf("saintetiq: attribute %q label %d is %q vs %q", t.attrs[a].name, j, t.attrs[a].labels[j], o.attrs[a].labels[j])
			}
		}
	}
	return nil
}

// leafCol returns the column of a leaf's descriptor on attribute a in its
// row.
func (t *Tree) leafCol(i int32, a int) int { return int(t.cellRow(i)[a]) }

// Merge incorporates every leaf of src into t (Merging(src, t)). Peer
// extents are preserved. src is not modified.
func (t *Tree) Merge(src *Tree) error {
	return t.MergeLeaves(src, src.Leaves())
}

// NewLike creates an empty hierarchy sharing t's configuration and attribute
// vocabulary (the Common Background Knowledge). It is the seed operation of
// shard splitting: a summary store carves a tree into shards by incorporating
// leaf subsets into NewLike trees.
func (t *Tree) NewLike() *Tree {
	out := emptyTree(t.cfg, t.attrs, t.off, t.rank)
	out.newNode()
	return out
}

// MergeLeaves incorporates the given leaves of src into t (Merging
// restricted to a leaf subset). Peer extents are preserved; src is not
// modified. This is the shard-split/merge primitive: a sharded store
// buckets src's leaves by owning shard in one pass and merges each bucket
// independently — disjoint buckets can merge concurrently into different
// destinations.
func (t *Tree) MergeLeaves(src *Tree, leaves []Node) error {
	if err := t.CompatibleWith(src); err != nil {
		return err
	}
	if src == t {
		src = t.Clone() // the leaves' rows must not move under the merge
	}
	if t.Empty() { // every leaf is new
		t.reserveLeaves(len(leaves))
	}
	// The vocabularies agree, so a leaf is its own contribution: its cell
	// and extent carry over without a detour through strings.
	con := t.newContribution()
	con.grades = make([]float64, len(t.attrs))
	for _, leaf := range leaves {
		i := leaf.i
		con.count, con.measures, con.peers = src.nodes[i].count, src.measureRow(i), src.extent(i)
		grades := src.row(src.grades, i)
		for a, col := range src.cellRow(i) {
			con.cols[a], con.grades[a] = col, grades[col]
		}
		t.incorporate(con)
	}
	return nil
}

// LeavesEqual reports whether two hierarchies describe the same grid cells
// with the same aggregates: identical leaf cells and, per leaf, equal
// tuple weight, descriptor grades, measures and peer extents (weights,
// grades and measures are compared with a small relative tolerance — the
// same contributions summed in a different order may differ in the last
// ulp). Measures matter on their own: values that move inside a grade-1
// plateau (ages 30 and 35 are both fully adult) leave key, weight and
// grades as they were. Structure above the
// leaves is ignored, so two trees built by different insertion orders still
// compare equal when they summarize the same data. Reconciliation uses it
// as the per-shard delta test: a shard whose leaves did not change keeps its
// current tree instead of being replaced.
func (t *Tree) LeavesEqual(o *Tree) bool {
	if len(t.leaves) != len(o.leaves) {
		return false
	}
	if err := t.CompatibleWith(o); err != nil {
		return false
	}
	const tol = 1e-9
	for k, a := range t.leaves { // both indexes ascend in one order
		b := o.leaves[k]
		if !slices.Equal(t.cellRow(a), o.cellRow(b)) {
			return false
		}
		if !approxEq(t.nodes[a].count, o.nodes[b].count, tol) || !slices.Equal(t.extent(a), o.extent(b)) {
			return false
		}
		ac, bc := t.row(t.counts, a), o.row(o.counts, b)
		ag, bg := t.row(t.grades, a), o.row(o.grades, b)
		for l := range ac {
			if !approxEq(ac[l], bc[l], tol) || !approxEq(ag[l], bg[l], tol) {
				return false
			}
		}
		am, bm := t.measureRow(a), o.measureRow(b)
		for i := range am {
			x, y := am[i], bm[i]
			if !approxEq(x.Weight, y.Weight, tol) || !approxEq(x.Min, y.Min, tol) || !approxEq(x.Max, y.Max, tol) ||
				!approxEq(x.Sum, y.Sum, tol) || !approxEq(x.SumSq, y.SumSq, tol) {
				return false
			}
		}
	}
	return true
}

// Clone deep-copies the hierarchy: one copy per arena array, with the peer
// extents packed without room (a clone is mostly read), plus the leaf index.
func (t *Tree) Clone() *Tree {
	out := &Tree{
		cfg:      t.cfg,
		attrs:    t.attrs,
		off:      t.off,
		rank:     t.rank,
		nodes:    slices.Clone(t.nodes),
		cols:     slices.Clone(t.cols),
		counts:   slices.Clone(t.counts),
		grades:   slices.Clone(t.grades),
		measures: slices.Clone(t.measures),
		masks:    slices.Clone(t.masks),
		sizes:    make([]int32, len(t.sizes)),
		free:     t.free,
		freed:    t.freed,
		leaves:   slices.Clone(t.leaves),
		nextID:   t.nextID,
		stats:    t.stats,
		epoch:    t.epoch,
	}
	out.peers = t.packPeers(out.nodes)
	t.copySizes(out.sizes)
	return out
}

// Empty reports whether the hierarchy holds no data yet.
func (t *Tree) Empty() bool { return len(t.leaves) == 0 }
