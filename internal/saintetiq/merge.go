package saintetiq

import (
	"fmt"
	"slices"

	"p2psum/internal/cells"
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

// LeafCell exports a leaf as a standalone cell plus its peer extent,
// suitable for re-incorporation elsewhere.
func (t *Tree) LeafCell(n *Node) (*cells.Cell, []PeerID) {
	c := &cells.Cell{
		Labels:   make([]string, len(t.attrs)),
		Grades:   make([]float64, len(t.attrs)),
		Count:    n.count,
		Measures: make([]cells.Measure, len(t.attrs)),
	}
	for a := range t.attrs {
		j := n.leafLabel(a)
		c.Labels[a] = t.attrs[a].labels[j]
		c.Grades[a] = n.grades[a][j]
		c.Measures[a] = n.measures[a]
	}
	return c, n.PeerIDs()
}

// leafLabel returns the descriptor of a leaf on attribute a: a leaf has
// exactly one per attribute by construction.
func (n *Node) leafLabel(a int) int {
	return slices.IndexFunc(n.counts[a], func(c float64) bool { return c > 0 })
}

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
	out := &Tree{cfg: t.cfg, attrs: t.attrs, byKey: make(map[string]*Node)}
	out.root = out.newNode("")
	return out
}

// MergeLeaves incorporates the given leaves of src into t (Merging
// restricted to a leaf subset). Peer extents are preserved; src is not
// modified. This is the shard-split/merge primitive: a sharded store
// buckets src's leaves by owning shard in one pass and merges each bucket
// independently — disjoint buckets can merge concurrently into different
// destinations.
func (t *Tree) MergeLeaves(src *Tree, leaves []*Node) error {
	if err := t.CompatibleWith(src); err != nil {
		return err
	}
	// The vocabularies agree, so a leaf is its own contribution: its label
	// indexes, key and extent carry over without a detour through strings.
	con := contribution{labels: make([]int, len(t.attrs)), grades: make([]float64, len(t.attrs))}
	for _, leaf := range leaves {
		con.count, con.measures, con.peers = leaf.count, leaf.measures, leaf.peers
		for a := range t.attrs {
			con.labels[a] = leaf.leafLabel(a)
			con.grades[a] = leaf.grades[a][con.labels[a]]
		}
		t.incorporate(leaf.key, &con)
	}
	return nil
}

// LeavesEqual reports whether two hierarchies describe the same grid cells
// with the same aggregates: identical leaf key sets and, per leaf, equal
// tuple weight, descriptor grades and peer extents (weights and grades are
// compared with a small relative tolerance — the same contributions summed
// in a different order may differ in the last ulp). Structure above the
// leaves is ignored, so two trees built by different insertion orders still
// compare equal when they summarize the same data. Reconciliation uses it
// as the per-shard delta test: a shard whose leaves did not change keeps its
// current tree instead of being replaced.
func (t *Tree) LeavesEqual(o *Tree) bool {
	if len(t.byKey) != len(o.byKey) {
		return false
	}
	if err := t.CompatibleWith(o); err != nil {
		return false
	}
	const tol = 1e-9
	for key, a := range t.byKey {
		b, ok := o.byKey[key]
		if !ok {
			return false
		}
		if !approxEq(a.count, b.count, tol) || !slices.Equal(a.peers, b.peers) {
			return false
		}
		for at := range t.attrs {
			for j := range t.attrs[at].labels {
				if !approxEq(a.counts[at][j], b.counts[at][j], tol) ||
					!approxEq(a.grades[at][j], b.grades[at][j], tol) {
					return false
				}
			}
		}
	}
	return true
}

// Clone deep-copies the hierarchy.
func (t *Tree) Clone() *Tree {
	out := &Tree{
		cfg:    t.cfg,
		attrs:  t.attrs, // immutable after New
		byKey:  make(map[string]*Node, len(t.byKey)),
		nextID: t.nextID,
		stats:  t.stats,
		epoch:  t.epoch,
	}
	out.root = out.cloneNode(t.root, nil)
	return out
}

func (t *Tree) cloneNode(n *Node, parent *Node) *Node {
	c := t.blankNode(n.id, n.key)
	c.count, c.parent, c.peers = n.count, parent, slices.Clone(n.peers)
	copy(c.measures, n.measures)
	for a := range n.counts {
		copy(c.counts[a], n.counts[a])
		copy(c.grades[a], n.grades[a])
	}
	if c.key != "" {
		t.byKey[c.key] = c
	}
	c.children = make([]*Node, len(n.children))
	for i, ch := range n.children {
		c.children[i] = t.cloneNode(ch, c)
	}
	return c
}

// Empty reports whether the hierarchy holds no data yet.
func (t *Tree) Empty() bool { return len(t.byKey) == 0 }
