// Package saintetiq implements the SaintEtiQ summarization service (paper
// §3.2.2, VLDB'05 [29], Fuzzy Sets & Systems [12]): an incremental,
// Cobweb-style conceptual clustering of grid cells into a hierarchy of
// summaries, plus the distributed extensions the paper adds — peer extents
// (Definition 3) and hierarchy merging (CIKM'07 [27]).
//
// A summary z is a hyperrectangle of the descriptor space: its intent is, per
// attribute, the set of descriptors appearing in the cells below z; its
// extent is the tuple weight of those cells; its peer extent is the set of
// peers owning at least one of those tuples. Nodes form a tree ordered by
// the generalization relation of Definition 2: the root is the most general
// summary, the leaves are single grid cells.
//
// A tree is a flat arena. Each node is a slot: one record with int32 parent,
// child and sibling links, one row of the tree's counts and grades arrays
// (strided by the total label count, attribute-major), one row of its masks
// array (a bit per column that may be non-zero), one row of its measures
// array (strided by the attribute count), and one ascending span of its
// peers array. A Node is a value handle (tree, slot); a slot freed by a
// split is reused by the next new node, and Clone is a copy of the arrays.
//
// The paper's maintenance cost model rests on two costs of the hierarchy
// itself, and the code keeps to them. Incorporating a cell is a walk that
// scores K children per level (§3.2.3). Every slot caches its class sum
// Σ P(d|z)² until the node is next written, and a candidate class term
// visits only the columns its classes' masks mark, in row order, so a
// placement costs O(K·D + K²) for children holding D descriptors each (a
// leaf holds one per attribute, of a row of L ≥ D columns), computes every
// float as a pass over the whole row would, and copies no count matrix
// (score.go). Merging(S1, S2) costs the leaves of S1 (§6.1.1): a leaf
// is re-incorporated directly, not through a cell of label strings
// (merge.go). And because every transport charges a summary its real encoded
// length, a tree is sized on each Send: every slot caches the encoded length
// of its body, every write to the node clears it, and sizing sums the cached
// lengths over a preorder walk, re-measuring only the nodes that changed,
// over their marked columns. The encoding leaves out every field the
// receiver derives bit for bit from the rest of the tree — leaf keys,
// internal grades, extents, Min and Max, and measure weights (encode.go).
package saintetiq

import (
	"fmt"
	"iter"
	"strings"

	"p2psum/internal/cells"
)

// PeerID identifies a peer in peer extents. The zero value is a real peer;
// single-database summaries that carry no provenance pass no id, or NoPeer.
type PeerID int

// NoPeer is the absent peer id; Incorporate ignores it.
const NoPeer PeerID = -1

// none is the absent slot: no parent, child or sibling, or the end of the
// free-slot chain.
const none int32 = -1

// node is the record of one slot of a tree's arena. The node's descriptor
// counts, grades and measures are rows of the tree's flat arrays at the same
// slot; its peer extent is peers[peerOff : peerOff+peerLen] of the tree's
// peers array, with room for peerCap.
type node struct {
	key   string  // cell key for leaves, "" for internal nodes and free slots
	count float64 // extent: total tuple weight below this node
	sum   float64 // class sum of the counts row, unsummed when unknown (score.go)
	id    int32   // tree-unique identifier, in creation order

	parent, first, last, next int32 // tree links; a free slot chains through next
	kids                      int32 // number of children

	peerOff, peerLen, peerCap int32
}

// Node is a handle on one summary of a hierarchy: its tree and its slot. It
// follows the node through every change of the tree except the node's own
// removal by a split, after which the slot may hold a new node.
type Node struct {
	t *Tree
	i int32
}

func (n Node) rec() *node { return &n.t.nodes[n.i] }

// ID returns the node's tree-unique identifier.
func (n Node) ID() int { return int(n.rec().id) }

// IsLeaf reports whether the node is a grid cell.
func (n Node) IsLeaf() bool { return n.rec().key != "" }

// Key returns the cell key of a leaf ("" for internal nodes).
func (n Node) Key() string { return n.rec().key }

// Count returns the node's extent weight (Rz cardinality under Ruspini BKs).
func (n Node) Count() float64 { return n.rec().count }

// Children iterates over the child summaries in order.
func (n Node) Children() iter.Seq[Node] {
	return func(yield func(Node) bool) {
		for c := n.rec().first; c != none; c = n.t.nodes[c].next {
			if !yield(Node{n.t, c}) {
				return
			}
		}
	}
}

// LabelIndexes returns the canonical indexes of the descriptors present on
// attribute a (the node's intent on a).
func (n Node) LabelIndexes(a int) []int {
	var out []int
	for j, c := range n.t.attrRow(n.t.counts, n.i, a) {
		if c > 0 {
			out = append(out, j)
		}
	}
	return out
}

// HasLabel reports whether descriptor j of attribute a belongs to the
// node's intent — LabelIndexes without the slice.
func (n Node) HasLabel(a, j int) bool { return n.t.attrRow(n.t.counts, n.i, a)[j] > 0 }

// LabelCounts returns the node's descriptor counts on attribute a, indexed
// by canonical label: descriptor j is in the intent when its count is
// positive. The row is the tree's own, read in place: callers must not
// modify it, nor keep it past the next write to the tree.
func (n Node) LabelCounts(a int) []float64 {
	row := n.t.attrRow(n.t.counts, n.i, a)
	return row[:len(row):len(row)]
}

// Grade returns the maximal membership grade of label j on attribute a.
func (n Node) Grade(a, j int) float64 { return n.t.attrRow(n.t.grades, n.i, a)[j] }

// Measure returns the aggregated measure of attribute a.
func (n Node) Measure(a int) cells.Measure { return n.t.measureRow(n.i)[a] }

// AppendPeerIDs appends the peer extent, ascending, to dst.
func (n Node) AppendPeerIDs(dst []PeerID) []PeerID { return append(dst, n.peers()...) }

// PeerCount returns the size of the peer extent.
func (n Node) PeerCount() int { return int(n.rec().peerLen) }

// peers returns the peer extent, ascending; callers must not mutate it.
func (n Node) peers() []PeerID { return n.t.extent(n.i) }

// Depth returns the node's depth (root = 0).
func (n Node) Depth() int {
	d := 0
	for p := n.rec().parent; p != none; p = n.t.nodes[p].parent {
		d++
	}
	return d
}

// contribution is the incremental update a cell (plus provenance) applies to
// every node on its insertion path. It is read-only to the tree: grades,
// measures and peers may alias the cell or the source leaf they came from.
type contribution struct {
	count    float64
	cols     []int // per attribute, the column of its label in a node row
	grades   []float64
	measures []cells.Measure
	peers    []PeerID
}

// apply folds the contribution into the aggregates of the node at slot i.
func (t *Tree) apply(i int32, c *contribution) {
	t.nodes[i].count += c.count
	counts, grades, measures := t.row(t.counts, i), t.row(t.grades, i), t.measureRow(i)
	for a, col := range c.cols {
		counts[col] += c.count
		if c.grades[a] > grades[col] {
			grades[col] = c.grades[a]
		}
		t.mark(i, col)
		measures[a].Merge(c.measures[a])
	}
	t.nodes[i].sum = unsummed
	for _, p := range c.peers {
		if p != NoPeer {
			t.addPeer(i, p)
		}
	}
	t.touch(i)
}

// intentString renders the node intent like {age:young|adult, bmi:normal}.
func (t *Tree) intentString(n Node) string {
	parts := make([]string, 0, len(t.attrs))
	for a, info := range t.attrs {
		idx := n.LabelIndexes(a)
		if len(idx) == 0 {
			continue
		}
		labs := make([]string, len(idx))
		for i, j := range idx {
			labs[i] = info.labels[j]
		}
		parts = append(parts, info.name+":"+strings.Join(labs, "|"))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// render writes the subtree rooted at n into sb.
func (t *Tree) render(sb *strings.Builder, n Node, depth int) {
	indent := strings.Repeat("  ", depth)
	kind := "z"
	if n.IsLeaf() {
		kind = "cell"
	}
	fmt.Fprintf(sb, "%s%s%d %s count=%.2f", indent, kind, n.ID(), t.intentString(n), n.Count())
	if n.PeerCount() > 0 {
		fmt.Fprintf(sb, " peers=%d", n.PeerCount())
	}
	sb.WriteString("\n")
	for c := range n.Children() {
		t.render(sb, c, depth+1)
	}
}
