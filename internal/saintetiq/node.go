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
// The paper's maintenance cost model rests on two costs of the hierarchy
// itself, and the code keeps to them. Incorporating a cell is a walk that
// scores K children per level (§3.2.3): every child's class term is computed
// once and each candidate partition substitutes one or two terms, O(K·L + K²)
// for L descriptors, without copying a count matrix (score.go). Merging(S1,
// S2) costs the leaves of S1 (§6.1.1): a leaf is re-incorporated directly,
// not through a cell of label strings (merge.go). And because every transport
// charges a summary its real encoded length, a tree is sized on each Send: one
// preorder recursion over nodes whose peer extents are kept as ascending
// slices, so nothing is sorted, indexed or allocated to encode (encode.go).
package saintetiq

import (
	"fmt"
	"slices"
	"strings"

	"p2psum/internal/cells"
)

// PeerID identifies a peer in peer extents. The zero value is a real peer;
// single-database summaries that carry no provenance pass no id, or NoPeer.
type PeerID int

// NoPeer is the absent peer id; Incorporate ignores it.
const NoPeer PeerID = -1

// Node is one summary of the hierarchy.
type Node struct {
	id  int
	key string // cell key for leaves, "" for internal nodes

	count    float64         // extent: total tuple weight below this node
	counts   [][]float64     // attr x label: weighted descriptor counts
	grades   [][]float64     // attr x label: max membership grade seen
	measures []cells.Measure // attr: weighted stats of numeric attributes
	peers    []PeerID        // peer extent (Definition 3), strictly ascending

	parent   *Node
	children []*Node
}

// ID returns the node's tree-unique identifier.
func (n *Node) ID() int { return n.id }

// IsLeaf reports whether the node is a grid cell.
func (n *Node) IsLeaf() bool { return n.key != "" }

// Key returns the cell key of a leaf ("" for internal nodes).
func (n *Node) Key() string { return n.key }

// Count returns the node's extent weight (Rz cardinality under Ruspini BKs).
func (n *Node) Count() float64 { return n.count }

// Children returns the child summaries; callers must not mutate the slice.
func (n *Node) Children() []*Node { return n.children }

// LabelIndexes returns the canonical indexes of the descriptors present on
// attribute a (the node's intent on a).
func (n *Node) LabelIndexes(a int) []int {
	var out []int
	for j, c := range n.counts[a] {
		if c > 0 {
			out = append(out, j)
		}
	}
	return out
}

// HasLabel reports whether descriptor j of attribute a belongs to the
// node's intent — LabelIndexes without the slice.
func (n *Node) HasLabel(a, j int) bool { return n.counts[a][j] > 0 }

// Grade returns the maximal membership grade of label j on attribute a.
func (n *Node) Grade(a, j int) float64 { return n.grades[a][j] }

// Measure returns the aggregated measure of attribute a.
func (n *Node) Measure(a int) cells.Measure { return n.measures[a] }

// AppendPeerIDs appends the peer extent, ascending, to dst.
func (n *Node) AppendPeerIDs(dst []PeerID) []PeerID { return append(dst, n.peers...) }

// addPeer inserts p into the extent, keeping it ascending and duplicate-free.
// An extent is a small set (at most the domain) that is written rarely and
// enumerated in order by every encode, merge and query.
func (n *Node) addPeer(p PeerID) {
	if i, ok := slices.BinarySearch(n.peers, p); !ok {
		n.peers = slices.Insert(n.peers, i, p)
	}
}

// PeerCount returns the size of the peer extent.
func (n *Node) PeerCount() int { return len(n.peers) }

// size returns the number of nodes in the subtree rooted at n.
func (n *Node) size() int {
	s := 1
	for _, c := range n.children {
		s += c.size()
	}
	return s
}

// Depth returns the node's depth (root = 0).
func (n *Node) Depth() int {
	d := 0
	for p := n.parent; p != nil; p = p.parent {
		d++
	}
	return d
}

// contribution is the incremental update a cell (plus provenance) applies to
// every node on its insertion path.
type contribution struct {
	count    float64
	labels   []int // canonical label index per attribute
	grades   []float64
	measures []cells.Measure
	peers    []PeerID
}

// apply folds the contribution into the node's aggregates.
func (n *Node) apply(c *contribution) {
	n.count += c.count
	for a, j := range c.labels {
		n.counts[a][j] += c.count
		if c.grades[a] > n.grades[a][j] {
			n.grades[a][j] = c.grades[a]
		}
		n.measures[a].Merge(c.measures[a])
	}
	for _, p := range c.peers {
		if p != NoPeer {
			n.addPeer(p)
		}
	}
}

// intentString renders the node intent like {age:young|adult, bmi:normal}.
func (t *Tree) intentString(n *Node) string {
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
func (t *Tree) render(sb *strings.Builder, n *Node, depth int) {
	indent := strings.Repeat("  ", depth)
	kind := "z"
	if n.IsLeaf() {
		kind = "cell"
	}
	fmt.Fprintf(sb, "%s%s%d %s count=%.2f", indent, kind, n.id, t.intentString(n), n.count)
	if len(n.peers) > 0 {
		fmt.Fprintf(sb, " peers=%d", len(n.peers))
	}
	sb.WriteString("\n")
	for _, c := range n.children {
		t.render(sb, c, depth+1)
	}
}
