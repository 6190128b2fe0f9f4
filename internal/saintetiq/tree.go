package saintetiq

import (
	"errors"
	"fmt"
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

// Tree is a SaintEtiQ summary hierarchy.
type Tree struct {
	cfg    Config
	attrs  []attrInfo
	root   *Node
	byKey  map[string]*Node // leaf per cell key
	nextID int
	stats  OpStats
	epoch  int // bumped by every structural change; used for cheap change detection
}

// New creates an empty hierarchy for the given background knowledge.
func New(b *bk.BK, cfg Config) *Tree {
	t := &Tree{cfg: cfg, byKey: make(map[string]*Node)}
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
		t.attrs = append(t.attrs, info)
	}
	t.root = t.newNode("")
	return t
}

func (t *Tree) newNode(key string) *Node {
	n := t.blankNode(t.nextID, key)
	for a := range n.measures {
		n.measures[a] = cells.NewMeasure()
	}
	t.nextID++
	return n
}

// blankNode allocates a node with zeroed aggregates. The attr x label
// matrices of one node share one header slice and one flat backing array.
func (t *Tree) blankNode(id int, key string) *Node {
	labels := 0
	for a := range t.attrs {
		labels += len(t.attrs[a].labels)
	}
	na := len(t.attrs)
	rows := make([][]float64, 2*na) // counts rows, then grades rows
	flat := make([]float64, 2*labels)
	for i := range rows {
		l := len(t.attrs[i%na].labels)
		rows[i], flat = flat[:l:l], flat[l:]
	}
	return &Node{
		id:       id,
		key:      key,
		counts:   rows[:na:na],
		grades:   rows[na:],
		measures: make([]cells.Measure, na),
	}
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
func (t *Tree) Root() *Node { return t.root }

// Stats returns the operator counters.
func (t *Tree) Stats() OpStats { return t.stats }

// LeafCount returns the number of leaves (grid cells) in the hierarchy.
func (t *Tree) LeafCount() int { return len(t.byKey) }

// NodeCount returns the total number of nodes.
func (t *Tree) NodeCount() int { return t.root.size() }

// Depth returns the maximum leaf depth.
func (t *Tree) Depth() int {
	deepest := 0
	t.Walk(func(n *Node) bool {
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
	t.Walk(func(n *Node) bool {
		if !n.IsLeaf() && len(n.children) > 0 {
			internal++
			edges += len(n.children)
		}
		return true
	})
	if internal == 0 {
		return 0
	}
	return float64(edges) / float64(internal)
}

// Walk visits nodes preorder; the visitor returns false to skip a subtree.
func (t *Tree) Walk(fn func(*Node) bool) {
	var rec func(*Node)
	rec = func(n *Node) {
		if !fn(n) {
			return
		}
		for _, c := range n.children {
			rec(c)
		}
	}
	rec(t.root)
}

// Leaves returns the leaves sorted by cell key.
func (t *Tree) Leaves() []*Node {
	keys := make([]string, 0, len(t.byKey))
	for k := range t.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Node, len(keys))
	for i, k := range keys {
		out[i] = t.byKey[k]
	}
	return out
}

// contributionOf converts a cell (with provenance) into the incremental
// update its insertion applies.
func (t *Tree) contributionOf(c *cells.Cell, peers []PeerID) (*contribution, error) {
	if len(c.Labels) != len(t.attrs) {
		return nil, fmt.Errorf("saintetiq: cell has %d labels, tree has %d attributes", len(c.Labels), len(t.attrs))
	}
	con := &contribution{
		count:    c.Count,
		labels:   make([]int, len(t.attrs)),
		grades:   append([]float64(nil), c.Grades...),
		measures: append([]cells.Measure(nil), c.Measures...),
		peers:    peers,
	}
	for a, lab := range c.Labels {
		j := t.LabelIndex(a, lab)
		if j < 0 {
			return nil, fmt.Errorf("saintetiq: label %q unknown on attribute %q", lab, t.attrs[a].name)
		}
		con.labels[a] = j
	}
	return con, nil
}

// Incorporate inserts one grid cell (tagged with the owning peers) into the
// hierarchy. This is the O(K)-amortized online operation of §3.2.3.
func (t *Tree) Incorporate(c *cells.Cell, peers ...PeerID) error {
	con, err := t.contributionOf(c, peers)
	if err != nil {
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
		leaf.apply(con)
		for p := leaf.parent; p != nil; p = p.parent {
			p.apply(con)
		}
		return
	}

	if len(t.byKey) == 0 {
		// First cell: the root describes exactly it, and the leaf hangs
		// directly below the root.
		t.root.apply(con)
		leaf := t.leafFor(key, con)
		t.attach(t.root, leaf)
		t.stats.Creates++
		return
	}
	t.insert(t.root, key, con)
}

// IncorporateStore folds a whole mapped store in (leaf order is
// deterministic).
func (t *Tree) IncorporateStore(s *cells.Store, peers ...PeerID) error {
	for _, c := range s.Cells() {
		if err := t.Incorporate(c, peers...); err != nil {
			return err
		}
	}
	return nil
}

// leafFor builds a new leaf node carrying exactly one contribution.
func (t *Tree) leafFor(key string, con *contribution) *Node {
	leaf := t.newNode(key)
	leaf.apply(con)
	t.byKey[key] = leaf
	return leaf
}

func (t *Tree) attach(parent, child *Node) {
	child.parent = parent
	parent.children = append(parent.children, child)
	t.epoch++
}

func (t *Tree) detach(parent, child *Node) {
	for i, c := range parent.children {
		if c == child {
			parent.children = append(parent.children[:i], parent.children[i+1:]...)
			child.parent = nil
			t.epoch++
			return
		}
	}
}

// insert places a new-key cell below node n (n's aggregates are updated
// here). n must be internal.
func (t *Tree) insert(n *Node, key string, con *contribution) {
	n.apply(con)

	if len(n.children) == 0 {
		// Degenerate internal node (can appear transiently after splits).
		t.attach(n, t.leafFor(key, con))
		t.stats.Creates++
		return
	}

	for round := 0; ; round++ {
		op, best, second := t.chooseOperator(n, con, round)
		switch op {
		case opHost:
			child := n.children[best]
			if child.IsLeaf() {
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
func (t *Tree) demoteLeaf(leaf *Node, key string, con *contribution) {
	oldLeaf := t.newNode(leaf.key)
	oldLeaf.count = leaf.count
	for a := range t.attrs {
		copy(oldLeaf.counts[a], leaf.counts[a])
		copy(oldLeaf.grades[a], leaf.grades[a])
		oldLeaf.measures[a] = leaf.measures[a]
	}
	oldLeaf.peers = slices.Clone(leaf.peers)
	t.byKey[oldLeaf.key] = oldLeaf

	leaf.key = "" // becomes internal
	leaf.apply(con)
	t.attach(leaf, oldLeaf)
	t.attach(leaf, t.leafFor(key, con))
}

// mergeChildren replaces children i and j of n by a single node covering
// both (the Cobweb merge operator).
func (t *Tree) mergeChildren(n *Node, i, j int) *Node {
	a, b := n.children[i], n.children[j]
	m := t.newNode("")
	m.count = a.count + b.count
	for at := range t.attrs {
		for l := range m.counts[at] {
			m.counts[at][l] = a.counts[at][l] + b.counts[at][l]
			m.grades[at][l] = max(a.grades[at][l], b.grades[at][l])
		}
		m.measures[at] = a.measures[at]
		m.measures[at].Merge(b.measures[at])
	}
	m.peers = slices.Clone(a.peers)
	for _, p := range b.peers {
		m.addPeer(p)
	}
	t.detach(n, a)
	t.detach(n, b)
	t.attach(n, m)
	t.attach(m, a)
	t.attach(m, b)
	return m
}

// splitChild replaces internal child i of n by its children (the Cobweb
// split operator).
func (t *Tree) splitChild(n *Node, i int) {
	child := n.children[i]
	t.detach(n, child)
	for _, gc := range append([]*Node(nil), child.children...) {
		t.detach(child, gc)
		t.attach(n, gc)
	}
}

// enforceArity merges the two closest children while the arity cap is
// exceeded.
func (t *Tree) enforceArity(n *Node) {
	if t.cfg.MaxChildren <= 1 {
		return
	}
	for len(n.children) > t.cfg.MaxChildren {
		i, j, _ := t.closestPair(n)
		t.mergeChildren(n, i, j)
		t.stats.Merges++
	}
}

// String renders the hierarchy (Figure 3 style).
func (t *Tree) String() string {
	var sb strings.Builder
	t.render(&sb, t.root, 0)
	return sb.String()
}

// Validate checks the structural invariants: parent aggregates equal the sum
// of child aggregates, leaf keys are registered, parent pointers are
// consistent. It is used by tests and by merge/reconciliation assertions.
func (t *Tree) Validate() error {
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n.IsLeaf() {
			if t.byKey[n.key] != n {
				return fmt.Errorf("saintetiq: leaf %d key %q not registered", n.id, n.key)
			}
			if len(n.children) != 0 {
				return fmt.Errorf("saintetiq: leaf %d has children", n.id)
			}
			return nil
		}
		if n != t.root && len(n.children) == 0 {
			return fmt.Errorf("saintetiq: internal node %d has no children", n.id)
		}
		var sum float64
		for _, c := range n.children {
			if c.parent != n {
				return fmt.Errorf("saintetiq: node %d has broken parent pointer", c.id)
			}
			sum += c.count
			if err := walk(c); err != nil {
				return err
			}
		}
		if len(n.children) > 0 && !approxEq(sum, n.count, 1e-6) {
			return fmt.Errorf("saintetiq: node %d count %.6f != children sum %.6f", n.id, n.count, sum)
		}
		for a := range t.attrs {
			for j := range t.attrs[a].labels {
				var s float64
				for _, c := range n.children {
					s += c.counts[a][j]
				}
				if len(n.children) > 0 && !approxEq(s, n.counts[a][j], 1e-6) {
					return fmt.Errorf("saintetiq: node %d attr %d label %d count mismatch", n.id, a, j)
				}
			}
		}
		return nil
	}
	if t.root.parent != nil {
		return errors.New("saintetiq: root has a parent")
	}
	return walk(t.root)
}

func approxEq(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if a > scale {
		scale = a
	}
	if b > scale {
		scale = b
	}
	return d <= tol*scale
}
