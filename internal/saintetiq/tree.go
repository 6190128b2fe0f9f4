package saintetiq

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
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

	nodes    []node
	counts   []float64       // slot x column: weighted descriptor counts
	grades   []float64       // slot x column: max membership grade seen
	measures []cells.Measure // slot x attribute: weighted stats of numeric attributes
	masks    []uint64        // slot x word: a bit per column that may be non-zero in counts or grades (maskRow)
	peers    []PeerID        // backing array of the peer-extent spans
	sizes    []int32         // slot: cached encoded body length, 0 when unknown (encode.go)
	free     int32           // head of the chain of slots freed by splits
	freed    int             // length of that chain

	byKey  map[string]int32 // leaf slot per cell key
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
	t := emptyTree(cfg, attrs, offsets(attrs))
	t.newNode("")
	return t
}

// offsets lays the attributes' labels out along a row, attribute-major.
func offsets(attrs []attrInfo) []int {
	off := make([]int, len(attrs)+1)
	for a, info := range attrs {
		off[a+1] = off[a] + len(info.labels)
	}
	return off
}

// emptyTree returns a tree without a single slot.
func emptyTree(cfg Config, attrs []attrInfo, off []int) *Tree {
	return &Tree{cfg: cfg, attrs: attrs, off: off, free: none, byKey: make(map[string]int32)}
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
// DecodeWire mark the columns they write, and demoteLeaf and mergeChildren
// carry their sources' bits over.
func (t *Tree) maskRow(i int32) []uint64 {
	w := t.words()
	b := int(i) * w
	return t.masks[b : b+w : b+w]
}

// mark sets column l's bit in slot i's mask.
func (t *Tree) mark(i int32, l int) {
	t.masks[int(i)*t.words()+l>>6] |= 1 << (l & 63)
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
	nd.key, nd.peerLen = "", 0
	nd.parent, nd.next = none, t.free
	t.free = i
	t.freed++
}

// newNode allocates a node with the next id and empty aggregates.
func (t *Tree) newNode(key string) int32 {
	i := t.alloc()
	t.nodes[i].key, t.nodes[i].id = key, int32(t.nextID)
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

// addPeer inserts p into slot i's extent, keeping it ascending and
// duplicate-free. An extent is a small set (at most the domain) that is
// written rarely and enumerated in order by every encode, merge and query.
func (t *Tree) addPeer(i int32, p PeerID) {
	at, ok := slices.BinarySearch(t.extent(i), p)
	if ok {
		return
	}
	t.reserve(i, int(t.nodes[i].peerLen)+1)
	nd := &t.nodes[i]
	span := t.peers[nd.peerOff : nd.peerOff+nd.peerLen+1]
	copy(span[at+1:], span[at:])
	span[at] = p
	nd.peerLen++
	t.touch(i)
}

// unionPeers sets slot m's extent to the union of the extents of a and b.
func (t *Tree) unionPeers(m, a, b int32) {
	t.copyPeers(m, t.extent(a))
	for _, p := range t.extent(b) { // stays valid if addPeer moves the array
		t.addPeer(m, p)
	}
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
func (t *Tree) LeafCount() int { return len(t.byKey) }

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

// Leaves returns the leaves sorted by cell key.
func (t *Tree) Leaves() []Node {
	keys := make([]string, 0, len(t.byKey))
	for k := range t.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Node, len(keys))
	for i, k := range keys {
		out[i] = Node{t, t.byKey[k]}
	}
	return out
}

// newContribution returns a contribution whose column buffer fits t.
func (t *Tree) newContribution() *contribution {
	return &contribution{cols: make([]int, len(t.attrs))}
}

// contributionOf fills con with the incremental update the insertion of a
// cell (with provenance) applies; con aliases the cell's grades and
// measures.
func (t *Tree) contributionOf(c *cells.Cell, peers []PeerID, con *contribution) error {
	if len(c.Labels) != len(t.attrs) {
		return fmt.Errorf("saintetiq: cell has %d labels, tree has %d attributes", len(c.Labels), len(t.attrs))
	}
	for a, lab := range c.Labels {
		j := t.LabelIndex(a, lab)
		if j < 0 {
			return fmt.Errorf("saintetiq: label %q unknown on attribute %q", lab, t.attrs[a].name)
		}
		con.cols[a] = t.off[a] + j
	}
	con.count, con.grades, con.measures, con.peers = c.Count, c.Grades, c.Measures, peers
	return nil
}

// Incorporate inserts one grid cell (tagged with the owning peers) into the
// hierarchy. This is the O(K)-amortized online operation of §3.2.3.
func (t *Tree) Incorporate(c *cells.Cell, peers ...PeerID) error {
	con := t.newContribution()
	if err := t.contributionOf(c, peers, con); err != nil {
		return err
	}
	t.incorporate(c.Key(), con)
	return nil
}

// incorporate places the contribution of the cell with the given key.
func (t *Tree) incorporate(key string, con *contribution) {
	t.stats.Incorporations++
	if leaf, ok := t.byKey[key]; ok {
		// Stabilized fast path: the combination exists; sorting the cell
		// into the tree is a pure walk (no structural operator).
		t.stats.FastPath++
		for i := leaf; i != none; i = t.nodes[i].parent {
			t.apply(i, con)
		}
		return
	}

	if len(t.byKey) == 0 {
		// First cell: the root describes exactly it, and the leaf hangs
		// directly below the root.
		t.apply(root, con)
		t.attach(root, t.leafFor(key, con))
		t.stats.Creates++
		return
	}
	t.insert(root, key, con)
}

// IncorporateStore folds a whole mapped store in (leaf order is
// deterministic), filling one contribution for every cell.
func (t *Tree) IncorporateStore(s *cells.Store, peers ...PeerID) error {
	if t.Empty() { // every cell is a new leaf
		t.reserveLeaves(s.Len())
	}
	con := t.newContribution()
	for _, c := range s.Cells() {
		if err := t.contributionOf(c, peers, con); err != nil {
			return err
		}
		t.incorporate(c.Key(), con)
	}
	return nil
}

// leafFor builds a new leaf node carrying exactly one contribution.
func (t *Tree) leafFor(key string, con *contribution) int32 {
	leaf := t.newNode(key)
	t.apply(leaf, con)
	t.byKey[key] = leaf
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

// insert places a new-key cell below node n (n's aggregates are updated
// here). n must be internal.
func (t *Tree) insert(n int32, key string, con *contribution) {
	t.apply(n, con)

	if t.nodes[n].kids == 0 {
		// Degenerate internal node (can appear transiently after splits).
		t.attach(n, t.leafFor(key, con))
		t.stats.Creates++
		return
	}

	for round := 0; ; round++ {
		op, best, second := t.chooseOperator(n, con, round)
		switch op {
		case opHost:
			child := t.child(n, best)
			if t.nodes[child].key != "" {
				// Hosting into a leaf with a different key demotes the leaf:
				// it becomes an internal node over {old cell, new cell}.
				t.demoteLeaf(child, key, con)
				t.stats.Hosts++
				return
			}
			t.stats.Hosts++
			t.insert(child, key, con)
			return
		case opCreate:
			t.attach(n, t.leafFor(key, con))
			t.stats.Creates++
			t.enforceArity(n)
			return
		case opMerge:
			m := t.mergeChildren(n, best, second)
			t.stats.Merges++
			t.insert(m, key, con)
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
// and the new cell as children.
func (t *Tree) demoteLeaf(leaf int32, key string, con *contribution) {
	old := t.newNode(t.nodes[leaf].key)
	t.nodes[old].count = t.nodes[leaf].count
	copy(t.row(t.counts, old), t.row(t.counts, leaf))
	copy(t.row(t.grades, old), t.row(t.grades, leaf))
	copy(t.maskRow(old), t.maskRow(leaf))
	copy(t.measureRow(old), t.measureRow(leaf))
	t.copyPeers(old, t.extent(leaf))
	t.byKey[t.nodes[old].key] = old

	t.nodes[leaf].key = "" // becomes internal
	t.apply(leaf, con)
	t.attach(leaf, old)
	t.attach(leaf, t.leafFor(key, con))
}

// mergeChildren replaces children i and j of n by a single node covering
// both (the Cobweb merge operator).
func (t *Tree) mergeChildren(n int32, i, j int) int32 {
	a, b := t.child(n, i), t.child(n, j)
	m := t.newNode("")
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
// of child aggregates, leaf keys are registered, parent and sibling links
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
		if nd.key != "" {
			leaves++
			if i, ok := t.byKey[nd.key]; !ok || i != n {
				return fmt.Errorf("saintetiq: leaf %d key %q not registered", nd.id, nd.key)
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
	if reached != t.NodeCount() || leaves != len(t.byKey) {
		return fmt.Errorf("saintetiq: %d nodes and %d leaves reachable, arena holds %d and %d",
			reached, leaves, t.NodeCount(), len(t.byKey))
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
