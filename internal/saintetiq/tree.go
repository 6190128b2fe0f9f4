package saintetiq

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/data"
)

// Config tunes the clustering process.
type Config struct {
	// MaxChildren caps node arity; when a create pushes a node beyond the
	// cap, the two closest children are merged. Zero means unlimited
	// (classic Cobweb behaviour).
	MaxChildren int
	// MaxSplitRounds bounds consecutive split applications while placing a
	// single cell at one node, preventing split/merge oscillation.
	MaxSplitRounds int
}

// DefaultConfig mirrors the paper's setting: a modest arity (the storage
// model of §6.1.1 speaks of a B-arity tree) and bounded restructuring.
func DefaultConfig() Config {
	return Config{MaxChildren: 6, MaxSplitRounds: 2}
}

// OpStats counts the structural operators applied so far; the maintenance
// layer watches them to detect hierarchy stabilization (§4.2.1).
type OpStats struct {
	Incorporations int // cells incorporated (including fast-path hits)
	FastPath       int // incorporations resolved by an existing leaf
	Hosts          int
	Creates        int
	Merges         int
	Splits         int
}

// Structural returns the number of tree-shape-changing operations.
func (s OpStats) Structural() int { return s.Creates + s.Merges + s.Splits }

type attrInfo struct {
	name    string
	labels  []string
	indexOf map[string]int
	numeric bool
}

// root is the slot of the most general summary; it is never removed.
const root int32 = 0

// Tree is a SaintEtiQ summary hierarchy, stored as a flat arena of slots
// (see the package comment).
type Tree struct {
	cfg   Config
	attrs []attrInfo // immutable after New, shared by Clone and NewLike
	off   []int      // a row's columns of attribute a are off[a]..off[a+1]; the last entry is the row stride
	rank  []int32    // per column, its label's rank in leaf order (cells.AppendLabelRanks); shared like attrs

	nodes    []node
	cols     []int32         // slot x attribute: a leaf's descriptor column, its cell (cellRow)
	counts   []float64       // slot x column: weighted descriptor counts
	grades   []float64       // slot x column: max membership grade seen
	measures []cells.Measure // slot x attribute: weighted stats of numeric attributes
	masks    []uint64        // slot x word: a bit per column that may be non-zero in counts or grades (maskRow)
	peers    []PeerID        // backing array of the peer-extent spans
	sizes    []int32         // slot: cached encoded body length, 0 when unknown (encode.go)
	free     int32           // head of the chain of slots freed by splits
	freed    int             // length of that chain

	leaves []int32 // the leaf slots, ascending by cell (cmpCells); every writer keeps it so
	nextID int
	stats  OpStats
	epoch  int // bumped by every structural change; used for cheap change detection
}

// New creates an empty hierarchy for the given background knowledge.
func New(b *bk.BK, cfg Config) *Tree {
	var attrs []attrInfo
	for _, a := range b.Attrs() {
		labels := a.Labels()
		info := attrInfo{
			name:    a.Name,
			labels:  append([]string(nil), labels...),
			indexOf: make(map[string]int, len(labels)),
			numeric: a.Kind == data.Numeric,
		}
		for j, lab := range labels {
			info.indexOf[lab] = j
		}
		attrs = append(attrs, info)
	}
	off, rank := layout(attrs)
	t := emptyTree(cfg, attrs, off, rank)
	t.newNode()
	return t
}

// layout lays the attributes' labels out along a row, attribute-major, and
// ranks every column's label in leaf order.
func layout(attrs []attrInfo) (off []int, rank []int32) {
	off = make([]int, len(attrs)+1)
	for a, info := range attrs {
		off[a+1] = off[a] + len(info.labels)
	}
	rank = make([]int32, 0, off[len(attrs)])
	for a, info := range attrs {
		rank = cells.AppendLabelRanks(rank, info.labels, a == len(attrs)-1)
	}
	return off, rank
}

// emptyTree returns a tree without a single slot.
func emptyTree(cfg Config, attrs []attrInfo, off []int, rank []int32) *Tree {
	return &Tree{cfg: cfg, attrs: attrs, off: off, rank: rank, free: none}
}

// stride is the number of columns in a counts or grades row.
func (t *Tree) stride() int { return t.off[len(t.attrs)] }

// row returns slot i's row of counts or grades.
func (t *Tree) row(arr []float64, i int32) []float64 {
	w := t.stride()
	b := int(i) * w
	return arr[b : b+w : b+w]
}

// attrRow returns the columns of attribute a in slot i's row of counts or
// grades, indexed by label.
func (t *Tree) attrRow(arr []float64, i int32, a int) []float64 {
	b := int(i) * t.stride()
	return arr[b+t.off[a] : b+t.off[a+1]]
}

// words is the length of a mask row: one bit per column of a row.
func (t *Tree) words() int { return (t.stride() + 63) >> 6 }

// maskRow returns slot i's column mask: ⌈stride/64⌉ words, bit l%64 of
// word l/64 standing for column l. A clear bit means the column is zero in
// both the counts and the grades row; a set bit promises nothing, so
// readers still test the values. alloc clears the mask, apply and
// DecodeWire mark the columns they write, and demoteLeaf, mergeChildren and
// DecodeWire's derived internal grades carry their sources' bits over.
func (t *Tree) maskRow(i int32) []uint64 {
	w := t.words()
	b := int(i) * w
	return t.masks[b : b+w : b+w]
}

// mark sets column l's bit in slot i's mask.
func (t *Tree) mark(i int32, l int) {
	t.masks[int(i)*t.words()+l>>6] |= 1 << (l & 63)
}

// cellRow returns slot i's cell: per attribute, the column of the leaf's
// descriptor. Only a leaf's row is meaningful.
func (t *Tree) cellRow(i int32) []int32 {
	na := len(t.attrs)
	b := int(i) * na
	return t.cols[b : b+na : b+na]
}

// cmpCells orders two cells, given as descriptor columns, as their joined
// keys sort: rank by rank, attribute by attribute (see the package
// comment).
func (t *Tree) cmpCells(x, y []int32) int {
	for a, c := range x {
		if rx, ry := t.rank[c], t.rank[y[a]]; rx != ry {
			return cmp.Compare(rx, ry)
		}
	}
	return 0
}

// findLeaf returns the position in the leaf index of the leaf of a cell,
// or where that leaf would go, and whether there is one.
func (t *Tree) findLeaf(cell []int32) (int, bool) {
	lo, hi := 0, len(t.leaves)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch c := t.cmpCells(t.cellRow(t.leaves[mid]), cell); {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// measureRow returns slot i's measures, one per attribute.
func (t *Tree) measureRow(i int32) []cells.Measure {
	na := len(t.attrs)
	b := int(i) * na
	return t.measures[b : b+na : b+na]
}

// alloc returns a zeroed, unlinked slot: the most recently freed one, whose
// peer span it keeps for reuse, or a new one at the end of the arena.
func (t *Tree) alloc() int32 {
	blank := node{sum: unsummed, parent: none, first: none, last: none, next: none}
	if i := t.free; i != none {
		nd := &t.nodes[i]
		t.free, t.freed = nd.next, t.freed-1
		blank.peerOff, blank.peerCap = nd.peerOff, nd.peerCap
		*nd = blank
		clear(t.row(t.counts, i))
		clear(t.row(t.grades, i))
		clear(t.maskRow(i))
		clear(t.measureRow(i))
		t.sizes[i] = 0
		return i
	}
	i := int32(len(t.nodes))
	t.nodes = append(t.nodes, blank)
	t.cols = append(t.cols, make([]int32, len(t.attrs))...)
	t.counts = append(t.counts, make([]float64, t.stride())...)
	t.grades = append(t.grades, make([]float64, t.stride())...)
	t.measures = append(t.measures, make([]cells.Measure, len(t.attrs))...)
	t.masks = append(t.masks, make([]uint64, t.words())...)
	t.sizes = append(t.sizes, 0)
	return i
}

// release puts a slot that no longer belongs to the tree on the free chain.
func (t *Tree) release(i int32) {
	nd := &t.nodes[i]
	nd.leaf, nd.peerLen = false, 0
	nd.parent, nd.next = none, t.free
	t.free = i
	t.freed++
}

// newNode allocates an internal node with the next id and empty
// aggregates.
func (t *Tree) newNode() int32 {
	i := t.alloc()
	t.nodes[i].id = int32(t.nextID)
	t.nextID++
	m := t.measureRow(i)
	for a := range m {
		m[a] = cells.NewMeasure()
	}
	return i
}

// extent returns slot i's peer extent, ascending.
func (t *Tree) extent(i int32) []PeerID {
	nd := &t.nodes[i]
	lo, hi := nd.peerOff, nd.peerOff+nd.peerLen
	return t.peers[lo:hi:hi]
}

// reserve gives slot i's peer span room for n peers. A span that is too
// small moves, content and all, to the end of the peers array with room to
// at least double, so the spans left behind never fill more than half the
// array; Clone drops them.
func (t *Tree) reserve(i int32, n int) {
	nd := &t.nodes[i]
	if n <= int(nd.peerCap) {
		return
	}
	c := max(n, 2*int(nd.peerCap))
	off := len(t.peers)
	t.peers = append(t.peers, t.peers[nd.peerOff:nd.peerOff+nd.peerLen]...)
	t.peers = append(t.peers, make([]PeerID, c-int(nd.peerLen))...)
	nd.peerOff, nd.peerCap = int32(off), int32(c)
}

// packPeers returns a new peers array holding just the extents of the
// given slot records (a copy of t's) back to back, without room, and points
// the records at it.
func (t *Tree) packPeers(nodes []node) []PeerID {
	n := 0
	for i := range nodes {
		nodes[i].peerCap = nodes[i].peerLen
		n += int(nodes[i].peerLen)
	}
	out := make([]PeerID, 0, n)
	for i := range nodes {
		nd := &nodes[i]
		ext := t.peers[nd.peerOff : nd.peerOff+nd.peerLen]
		nd.peerOff = int32(len(out))
		out = append(out, ext...)
	}
	return out
}

// addPeers folds the ascending set ps into slot i's extent, keeping it
// ascending and duplicate-free, with a binary search per peer, one merge
// and at most one reserve. An extent is a small set (at most the domain)
// that is written rarely and enumerated in order by every encode, merge
// and query. ps must not lie in slot i's span.
func (t *Tree) addPeers(i int32, ps []PeerID) {
	ext := t.extent(i)
	fresh := 0 // the peers of ps not in ext, each found by binary search
	for j, k := 0, 0; k < len(ps); k++ {
		at, ok := slices.BinarySearch(ext[j:], ps[k])
		if j += at; ok {
			j++
		} else {
			fresh++
		}
	}
	if fresh == 0 {
		return
	}
	t.reserve(i, len(ext)+fresh)
	nd := &t.nodes[i]
	span := t.peers[nd.peerOff : nd.peerOff+nd.peerLen+int32(fresh)]
	// Merge from the back: an entry of the extent moves before it is
	// overwritten.
	j, k := int(nd.peerLen)-1, len(ps)-1
	for w := len(span) - 1; k >= 0; w-- {
		switch {
		case j >= 0 && span[j] > ps[k]:
			span[w], j = span[j], j-1
		case j >= 0 && span[j] == ps[k]:
			span[w], j, k = span[j], j-1, k-1
		default:
			span[w], k = ps[k], k-1
		}
	}
	nd.peerLen += int32(fresh)
	t.touch(i)
}

// unionPeers sets slot m's extent to the union of the extents of a and b,
// reserving room for both once.
func (t *Tree) unionPeers(m, a, b int32) {
	t.nodes[m].peerLen = 0
	t.reserve(m, int(t.nodes[a].peerLen+t.nodes[b].peerLen))
	nd := &t.nodes[m]
	span := t.peers[nd.peerOff : nd.peerOff : nd.peerOff+nd.peerCap] // room enough: the union is written in place
	nd.peerLen = int32(len(unionPeerSets(span, t.extent(a), t.extent(b))))
	t.touch(m)
}

// peerSet returns peers as an ascending set without NoPeer, the form a
// contribution carries: peers itself when it is one already.
func peerSet(peers []PeerID) []PeerID {
	for k, p := range peers {
		if p == NoPeer || k > 0 && p <= peers[k-1] {
			set := slices.DeleteFunc(slices.Clone(peers), func(p PeerID) bool { return p == NoPeer })
			slices.Sort(set)
			return slices.Compact(set)
		}
	}
	return peers
}

// copyPeers sets slot i's extent to a copy of the ascending set src.
func (t *Tree) copyPeers(i int32, src []PeerID) {
	t.nodes[i].peerLen = 0
	t.reserve(i, len(src))
	nd := &t.nodes[i]
	nd.peerLen = int32(copy(t.peers[nd.peerOff:nd.peerOff+nd.peerCap], src))
	t.touch(i)
}

// AttrName returns the name of attribute a.
func (t *Tree) AttrName(a int) string { return t.attrs[a].name }

// AttrIndex returns the position of the named attribute, or -1.
func (t *Tree) AttrIndex(name string) int {
	for i, a := range t.attrs {
		if a.name == name {
			return i
		}
	}
	return -1
}

// AttrLabels returns the canonical label vocabulary of attribute a.
func (t *Tree) AttrLabels(a int) []string { return t.attrs[a].labels }

// LabelIndex returns the canonical index of a label on attribute a, or -1.
func (t *Tree) LabelIndex(a int, label string) int {
	if j, ok := t.attrs[a].indexOf[label]; ok {
		return j
	}
	return -1
}

// Label returns the label string at canonical index j of attribute a.
func (t *Tree) Label(a, j int) string { return t.attrs[a].labels[j] }

// Root returns the most general summary.
func (t *Tree) Root() Node { return Node{t, root} }

// Stats returns the operator counters.
func (t *Tree) Stats() OpStats { return t.stats }

// LeafCount returns the number of leaves (grid cells) in the hierarchy.
func (t *Tree) LeafCount() int { return len(t.leaves) }

// NodeCount returns the total number of nodes.
func (t *Tree) NodeCount() int { return len(t.nodes) - t.freed }

// Depth returns the maximum leaf depth.
func (t *Tree) Depth() int {
	deepest := 0
	t.Walk(func(n Node) bool {
		if n.IsLeaf() {
			if d := n.Depth(); d > deepest {
				deepest = d
			}
		}
		return true
	})
	return deepest
}

// AvgBranching returns the average arity of internal nodes (the B of the
// §6.1.1 storage model).
func (t *Tree) AvgBranching() float64 {
	internal, edges := 0, 0
	t.Walk(func(n Node) bool {
		if k := n.rec().kids; !n.IsLeaf() && k > 0 {
			internal++
			edges += int(k)
		}
		return true
	})
	if internal == 0 {
		return 0
	}
	return float64(edges) / float64(internal)
}

// Walk visits nodes preorder; the visitor returns false to skip a subtree.
func (t *Tree) Walk(fn func(Node) bool) {
	var rec func(i int32)
	rec = func(i int32) {
		if !fn(Node{t, i}) {
			return
		}
		for c := t.nodes[i].first; c != none; c = t.nodes[c].next {
			rec(c)
		}
	}
	rec(root)
}

// Leaves returns the leaves sorted by cell key: a read of the leaf index.
func (t *Tree) Leaves() []Node {
	out := make([]Node, len(t.leaves))
	for k, leaf := range t.leaves {
		out[k] = Node{t, leaf}
	}
	return out
}

// newContribution returns a contribution whose column buffer fits t.
func (t *Tree) newContribution() *contribution {
	return &contribution{cols: make([]int32, len(t.attrs))}
}

// contributionOf fills con with the incremental update the insertion of a
// cell (with provenance, an ascending set without NoPeer) applies, looking
// each label up by name; con aliases the cell's grades and measures.
func (t *Tree) contributionOf(c *cells.Cell, peers []PeerID, con *contribution) error {
	if len(c.Labels) != len(t.attrs) {
		return fmt.Errorf("saintetiq: cell has %d labels, tree has %d attributes", len(c.Labels), len(t.attrs))
	}
	if !(c.Count > 0) { // a leaf's descriptors are the columns that count it
		return fmt.Errorf("saintetiq: cell has count %v, want a positive one", c.Count)
	}
	for a, lab := range c.Labels {
		j := t.LabelIndex(a, lab)
		if j < 0 {
			return fmt.Errorf("saintetiq: label %q unknown on attribute %q", lab, t.attrs[a].name)
		}
		con.cols[a] = int32(t.off[a] + j)
	}
	con.count, con.grades, con.measures, con.peers = c.Count, c.Grades, c.Measures, peers
	return nil
}

// Incorporate inserts one grid cell (tagged with the owning peers) into the
// hierarchy. This is the O(K)-amortized online operation of §3.2.3.
func (t *Tree) Incorporate(c *cells.Cell, peers ...PeerID) error {
	con := t.newContribution()
	if err := t.contributionOf(c, peerSet(peers), con); err != nil {
		return err
	}
	t.incorporate(con)
	return nil
}

// incorporate places a contribution.
func (t *Tree) incorporate(con *contribution) {
	t.stats.Incorporations++
	if at, ok := t.findLeaf(con.cols); ok {
		// Stabilized fast path: the combination exists; sorting the cell
		// into the tree is a pure walk (no structural operator).
		t.stats.FastPath++
		for i := t.leaves[at]; i != none; i = t.nodes[i].parent {
			t.apply(i, con)
		}
		return
	}

	if len(t.leaves) == 0 {
		// First cell: the root describes exactly it, and the leaf hangs
		// directly below the root.
		t.apply(root, con)
		t.attach(root, t.leafFor(con))
		t.stats.Creates++
		return
	}
	t.insert(root, con)
}

// IncorporateStore folds a whole mapped store in (leaf order is
// deterministic), filling one contribution for every cell. The store's
// vocabulary is checked once: when it is t's, a cell's label indexes are
// its columns, and only a vocabulary that differs looks labels up by name.
func (t *Tree) IncorporateStore(s *cells.Store, peers ...PeerID) error {
	if t.Empty() { // every cell is a new leaf
		t.reserveLeaves(s.Len())
	}
	con := t.newContribution()
	ps := peerSet(peers)
	direct := t.sameLabels(s.Mapper())
	for _, c := range s.Cells() {
		switch {
		case !direct:
			if err := t.contributionOf(c, ps, con); err != nil {
				return err
			}
		case !(c.Count > 0):
			return fmt.Errorf("saintetiq: cell has count %v, want a positive one", c.Count)
		default:
			for a, j := range c.Index() {
				con.cols[a] = int32(t.off[a]) + j
			}
			con.count, con.grades, con.measures, con.peers = c.Count, c.Grades, c.Measures, ps
		}
		t.incorporate(con)
	}
	return nil
}

// sameLabels reports whether the mapper's vocabulary is t's, attribute by
// attribute and label by label.
func (t *Tree) sameLabels(m *cells.Mapper) bool {
	if m.Len() != len(t.attrs) {
		return false
	}
	for a := range t.attrs {
		if !slices.Equal(m.Labels(a), t.attrs[a].labels) {
			return false
		}
	}
	return true
}

// leafFor builds a new leaf node carrying exactly one contribution and
// enters it in the leaf index.
func (t *Tree) leafFor(con *contribution) int32 {
	leaf := t.newNode()
	t.nodes[leaf].leaf = true
	copy(t.cellRow(leaf), con.cols)
	t.apply(leaf, con)
	at, _ := t.findLeaf(con.cols)
	t.leaves = slices.Insert(t.leaves, at, leaf)
	return leaf
}

// link appends child to parent's children.
func (t *Tree) link(parent, child int32) {
	p, c := &t.nodes[parent], &t.nodes[child]
	c.parent, c.next = parent, none
	if p.last == none {
		p.first = child
	} else {
		t.nodes[p.last].next = child
	}
	p.last = child
	p.kids++
}

func (t *Tree) attach(parent, child int32) {
	t.link(parent, child)
	t.epoch++
}

func (t *Tree) detach(parent, child int32) {
	p := &t.nodes[parent]
	prev := none
	for c := p.first; c != none; prev, c = c, t.nodes[c].next {
		if c != child {
			continue
		}
		next := t.nodes[c].next
		if prev == none {
			p.first = next
		} else {
			t.nodes[prev].next = next
		}
		if p.last == child {
			p.last = prev
		}
		p.kids--
		t.nodes[c].parent, t.nodes[c].next = none, none
		t.epoch++
		return
	}
}

// child returns the slot of the k-th child of slot n.
func (t *Tree) child(n int32, k int) int32 {
	c := t.nodes[n].first
	for ; k > 0; k-- {
		c = t.nodes[c].next
	}
	return c
}

// insert places a new cell below node n (n's aggregates are updated
// here). n must be internal.
func (t *Tree) insert(n int32, con *contribution) {
	t.apply(n, con)

	if t.nodes[n].kids == 0 {
		// Degenerate internal node (can appear transiently after splits).
		t.attach(n, t.leafFor(con))
		t.stats.Creates++
		return
	}

	for round := 0; ; round++ {
		op, best, second := t.chooseOperator(n, con, round)
		switch op {
		case opHost:
			child := t.child(n, best)
			if t.nodes[child].leaf {
				// Hosting into a leaf with a different cell demotes the leaf:
				// it becomes an internal node over {old cell, new cell}.
				t.demoteLeaf(child, con)
				t.stats.Hosts++
				return
			}
			t.stats.Hosts++
			t.insert(child, con)
			return
		case opCreate:
			t.attach(n, t.leafFor(con))
			t.stats.Creates++
			t.enforceArity(n)
			return
		case opMerge:
			m := t.mergeChildren(n, best, second)
			t.stats.Merges++
			t.insert(m, con)
			return
		case opSplit:
			t.splitChild(n, best)
			t.stats.Splits++
			// Re-evaluate against the widened partition.
			continue
		default:
			panic("saintetiq: unknown operator")
		}
	}
}

// demoteLeaf turns leaf into an internal node holding a copy of its old cell
// and the new cell as children. The copy takes the leaf's place in the leaf
// index.
func (t *Tree) demoteLeaf(leaf int32, con *contribution) {
	old := t.newNode()
	t.nodes[old].leaf = true
	copy(t.cellRow(old), t.cellRow(leaf))
	t.nodes[old].count = t.nodes[leaf].count
	copy(t.row(t.counts, old), t.row(t.counts, leaf))
	copy(t.row(t.grades, old), t.row(t.grades, leaf))
	copy(t.maskRow(old), t.maskRow(leaf))
	copy(t.measureRow(old), t.measureRow(leaf))
	t.copyPeers(old, t.extent(leaf))
	at, _ := t.findLeaf(t.cellRow(leaf))
	t.leaves[at] = old

	t.nodes[leaf].leaf = false // becomes internal
	t.apply(leaf, con)
	t.attach(leaf, old)
	t.attach(leaf, t.leafFor(con))
}

// mergeChildren replaces children i and j of n by a single node covering
// both (the Cobweb merge operator).
func (t *Tree) mergeChildren(n int32, i, j int) int32 {
	a, b := t.child(n, i), t.child(n, j)
	m := t.newNode()
	t.nodes[m].count = t.nodes[a].count + t.nodes[b].count
	mc, ac, bc := t.row(t.counts, m), t.row(t.counts, a), t.row(t.counts, b)
	mg, ag, bg := t.row(t.grades, m), t.row(t.grades, a), t.row(t.grades, b)
	for l := range mc {
		mc[l] = ac[l] + bc[l]
		mg[l] = max(ag[l], bg[l])
	}
	mw, aw, bw := t.maskRow(m), t.maskRow(a), t.maskRow(b)
	for w := range mw {
		mw[w] = aw[w] | bw[w]
	}
	mm, am, bm := t.measureRow(m), t.measureRow(a), t.measureRow(b)
	for at := range mm {
		mm[at] = am[at]
		mm[at].Merge(bm[at])
	}
	t.unionPeers(m, a, b)
	t.detach(n, a)
	t.detach(n, b)
	t.attach(n, m)
	t.attach(m, a)
	t.attach(m, b)
	return m
}

// splitChild replaces internal child i of n by its children (the Cobweb
// split operator) and frees the child's slot.
func (t *Tree) splitChild(n int32, i int) {
	child := t.child(n, i)
	t.detach(n, child)
	for gc := t.nodes[child].first; gc != none; {
		next := t.nodes[gc].next
		t.detach(child, gc)
		t.attach(n, gc)
		gc = next
	}
	t.release(child)
}

// enforceArity merges the two closest children while the arity cap is
// exceeded.
func (t *Tree) enforceArity(n int32) {
	if t.cfg.MaxChildren <= 1 {
		return
	}
	for int(t.nodes[n].kids) > t.cfg.MaxChildren {
		i, j, _ := t.closestPair(n)
		t.mergeChildren(n, i, j)
		t.stats.Merges++
	}
}

// String renders the hierarchy (Figure 3 style).
func (t *Tree) String() string {
	var sb strings.Builder
	t.render(&sb, t.Root(), 0)
	return sb.String()
}

// Validate checks the structural invariants: parent aggregates equal the sum
// of child aggregates, leaves are in the leaf index, parent and sibling links
// are consistent, and every slot is either in the tree or on the free chain.
// It is used by tests and by merge/reconciliation assertions.
func (t *Tree) Validate() error {
	reached, leaves := 0, 0
	var walk func(n int32) error
	walk = func(n int32) error {
		reached++
		nd := &t.nodes[n]
		if reached > len(t.nodes) {
			return errors.New("saintetiq: tree links form a cycle")
		}
		if nd.leaf {
			leaves++
			if at, ok := t.findLeaf(t.cellRow(n)); !ok || t.leaves[at] != n {
				return fmt.Errorf("saintetiq: leaf %d key %q not registered", nd.id, Node{t, n}.Key())
			}
			if nd.first != none {
				return fmt.Errorf("saintetiq: leaf %d has children", nd.id)
			}
			return nil
		}
		if n != root && nd.first == none {
			return fmt.Errorf("saintetiq: internal node %d has no children", nd.id)
		}
		var sum float64
		kids, last := int32(0), none
		for c := nd.first; c != none; c = t.nodes[c].next {
			if t.nodes[c].parent != n {
				return fmt.Errorf("saintetiq: node %d has broken parent pointer", t.nodes[c].id)
			}
			kids, last = kids+1, c
			sum += t.nodes[c].count
			if err := walk(c); err != nil {
				return err
			}
		}
		if kids != nd.kids || last != nd.last {
			return fmt.Errorf("saintetiq: node %d has broken child links", nd.id)
		}
		if kids > 0 && !approxEq(sum, nd.count, 1e-6) {
			return fmt.Errorf("saintetiq: node %d count %.6f != children sum %.6f", nd.id, nd.count, sum)
		}
		for a := range t.attrs {
			for j := range t.attrs[a].labels {
				var s float64
				for c := nd.first; c != none; c = t.nodes[c].next {
					s += t.attrRow(t.counts, c, a)[j]
				}
				if kids > 0 && !approxEq(s, t.attrRow(t.counts, n, a)[j], 1e-6) {
					return fmt.Errorf("saintetiq: node %d attr %d label %d count mismatch", nd.id, a, j)
				}
			}
		}
		return nil
	}
	if len(t.nodes) == 0 || t.nodes[root].parent != none {
		return errors.New("saintetiq: root missing or has a parent")
	}
	if err := walk(root); err != nil {
		return err
	}
	if reached != t.NodeCount() || leaves != len(t.leaves) {
		return fmt.Errorf("saintetiq: %d nodes and %d leaves reachable, arena holds %d and %d",
			reached, leaves, t.NodeCount(), len(t.leaves))
	}
	return nil
}

// approxEq reports whether a and b agree within tol relative to the larger
// magnitude (absolute below 1). Equal values, infinite ones included (the
// Min and Max of an empty measure), always agree.
func approxEq(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*max(1, math.Abs(a), math.Abs(b))
}
