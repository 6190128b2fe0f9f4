package saintetiq

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/wire"
)

// FuzzDecodeWire feeds arbitrary bytes to DecodeWire: it may never panic,
// and whatever it accepts is a valid hierarchy whose re-encoding is a fixed
// point — encode(decode(b)) decodes to the same leaves and encodes to the
// same bytes again (the first re-encoding may differ from b: peer lists come
// back as ascending sets and explicit zero counts are dropped), and its
// caches hold to its rows. The corpus also holds the frames
// TestDecodeWireRejects must see refused, and a root that counts nothing
// where a child grades a descriptor (a near-zero count within Validate's
// tolerance), whose mask must still mark that grade.
func FuzzDecodeWire(f *testing.F) {
	small := New(bk.PaperExample(), DefaultConfig()) // three leaves: cheap to mutate
	if err := small.IncorporateStore(paperStore(f), 2, 1); err != nil {
		f.Fatal(err)
	}
	for _, tr := range append(goldenTrees(f), small) {
		b := encodeTree(tr)
		f.Add(b)
		for _, cut := range []int{1, len(b) / 3, len(b) / 2, len(b) - 1} {
			f.Add(b[:cut])
		}
	}
	f.Add([]byte{})
	for _, bad := range rejectedFrames() {
		f.Add(bad.frame)
	}
	f.Add(handFrame(handNode{parent: -1, count: 1, counts: [2]float64{1, 0}},
		handNode{parent: 0, leaf: true, count: 1, label: 0},
		handNode{parent: 0, leaf: true, count: 1e-9, label: 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeWire(wire.NewDec(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted tree is invalid: %v", err)
		}
		checkCaches(t, tr)
		once := encodeTree(tr)
		if tr.EncodedSize() != len(once) {
			t.Fatalf("EncodedSize %d, encoding is %d bytes", tr.EncodedSize(), len(once))
		}
		back, err := DecodeWire(wire.NewDec(once))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		// A tree with NaN aggregates is not even equal to itself.
		if back.LeavesEqual(tr) != tr.LeavesEqual(tr) {
			t.Fatal("re-encoding changed the leaves")
		}
		if twice := encodeTree(back); !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not a fixed point: %d then %d bytes", len(once), len(twice))
		}
	})
}

// FuzzTreeOps runs a fuzz-chosen sequence of Incorporate, Merge,
// MergeLeaves and Clone calls on two hierarchies over the paper's
// two-attribute BK (twelve cells: leaves repeat, nodes split, merge and
// demote) and after every step holds the arena to its bytes: the tree
// validates, its column masks and cached class sums hold to its rows, the
// counted length equals the written length, the written
// bytes decode and re-encode to themselves, and a clone mutated after it
// was taken leaves its original's bytes alone.
//
// Each step is two bytes: the first picks the tree (bit 0) and the
// operation (bits 1-2), the second the cell, subset or mutation.
func FuzzTreeOps(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		ops := make([]byte, 1+40*(seed+1))
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	b := bk.PaperExample()
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		cfg := Config{MaxChildren: int(ops[0] % 5), MaxSplitRounds: int(ops[0]>>4) % 3}
		trees := [2]*Tree{New(b, cfg), New(b, cfg)}
		for ops = ops[1:]; len(ops) >= 2; ops = ops[2:] {
			which, arg := ops[0]&1, ops[1]
			dst, src := trees[which], trees[1-which]
			switch ops[0] >> 1 % 4 {
			case 0:
				c, peer := opCell(dst, arg)
				if err := dst.Incorporate(c, peer); err != nil {
					t.Fatal(err)
				}
			case 1:
				if err := dst.Merge(src); err != nil {
					t.Fatal(err)
				}
			case 2:
				var part []Node
				for i, leaf := range src.Leaves() {
					if arg>>(i%8)&1 == 1 {
						part = append(part, leaf)
					}
				}
				if err := dst.MergeLeaves(src, part); err != nil {
					t.Fatal(err)
				}
			case 3:
				// The clone replaces the original, which must not see the
				// clone's later writes.
				before := encodeTree(dst)
				clone := dst.Clone()
				checkArena(t, clone)
				c, peer := opCell(clone, arg)
				if err := clone.Incorporate(c, peer); err != nil {
					t.Fatal(err)
				}
				if err := clone.Merge(src); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(encodeTree(dst), before) {
					t.Fatal("writing to a clone changed its original")
				}
				trees[which], dst = clone, clone
			}
			checkArena(t, dst)
		}
	})
}

// opCell derives a cell of t's two-attribute vocabulary from one byte: the
// descriptors, a weight and a grade, and a peer or NoPeer.
func opCell(t *Tree, arg byte) (*cells.Cell, PeerID) {
	na, nb := len(t.AttrLabels(0)), len(t.AttrLabels(1))
	x := int(arg)
	c := &cells.Cell{
		Labels:   []string{t.Label(0, x%na), t.Label(1, x/na%nb)},
		Grades:   []float64{1 - float64(x%3)/4, 1 - float64(x%5)/8},
		Count:    float64(1+x%4) / 2,
		Measures: []cells.Measure{cells.NewMeasure(), cells.NewMeasure()},
	}
	c.Measures[0].Add(float64(x%97), c.Count)
	c.Measures[1].Add(17+float64(x%23)/2, c.Count)
	return c, PeerID(x%7) - 1 // NoPeer or 0..5
}

// checkArena holds a tree to its bytes: it validates, its caches hold to
// its rows (checkCaches), the fields the encoding leaves out are derivable
// (checkDerivable), its counted length is its written length, and those
// bytes decode to the same tree, field by field (sameTree), which writes
// them again.
func checkArena(t *testing.T, tr *Tree) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	checkCaches(t, tr)
	checkDerivable(t, tr)
	written := encodeTree(tr)
	if n := tr.EncodedSize(); n != len(written) {
		t.Fatalf("counted %d bytes, wrote %d", n, len(written))
	}
	back, err := DecodeWire(wire.NewDec(written))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	sameTree(t, back, tr)
	checkCaches(t, back)
	if again := encodeTree(back); !bytes.Equal(again, written) {
		t.Fatalf("decoded tree re-encodes to %d bytes, not its %d", len(again), len(written))
	}
}

// checkDerivable asserts, as bits, each invariant DecodeWire relies on to
// rebuild what the encoding leaves out:
//   - a leaf has a positive count and, per attribute, one non-zero column
//     (count or grade), whose count is the leaf's; its key is its labels
//     joined by cells.KeySep;
//   - a categorical attribute's measure is cells.NewMeasure, and a numeric
//     one's Weight is its node's count;
//   - an internal node's grades are the column-wise max of its children's,
//     its extent is their union, and a numeric measure's Min and Max are
//     the min and max of theirs.
func checkDerivable(t testing.TB, tr *Tree) {
	t.Helper()
	empty := cells.NewMeasure()
	tr.Walk(func(n Node) bool {
		nd, i := n.rec(), n.i
		for a, m := range tr.measureRow(i) {
			if !tr.attrs[a].numeric && !sameMeasure(m, empty) {
				t.Fatalf("node %d: categorical attr %d has measure %+v", nd.id, a, m)
			}
			if tr.attrs[a].numeric && math.Float64bits(m.Weight) != math.Float64bits(nd.count) {
				t.Fatalf("node %d: attr %d Weight %v, count %v", nd.id, a, m.Weight, nd.count)
			}
		}
		if n.IsLeaf() {
			if !(nd.count > 0) {
				t.Fatalf("leaf %d has count %v", nd.id, nd.count)
			}
			labels := make([]string, len(tr.attrs))
			for a := range tr.attrs {
				counts, grades := tr.attrRow(tr.counts, i, a), tr.attrRow(tr.grades, i, a)
				nnz := 0
				for j := range counts {
					if counts[j] != 0 || grades[j] != 0 {
						nnz++
						labels[a] = tr.attrs[a].labels[j]
						if math.Float64bits(counts[j]) != math.Float64bits(nd.count) {
							t.Fatalf("leaf %d attr %d: column count %v, leaf count %v", nd.id, a, counts[j], nd.count)
						}
					}
				}
				if nnz != 1 {
					t.Fatalf("leaf %d attr %d has %d non-zero columns", nd.id, a, nnz)
				}
			}
			if key := strings.Join(labels, cells.KeySep); key != nd.key {
				t.Fatalf("leaf %d key %q, its labels join to %q", nd.id, nd.key, key)
			}
			return true
		}
		grades := make([]float64, tr.stride())
		own, derived := tr.measureRow(i), make([]cells.Measure, len(tr.attrs))
		for a := range derived {
			derived[a] = cells.NewMeasure()
		}
		var ext []PeerID
		for c := range n.Children() {
			for l, g := range tr.row(tr.grades, c.i) {
				if g > grades[l] {
					grades[l] = g
				}
			}
			for a, m := range tr.measureRow(c.i) {
				derived[a].Min, derived[a].Max = min(derived[a].Min, m.Min), max(derived[a].Max, m.Max)
			}
			ext = append(ext, c.peers()...)
		}
		slices.Sort(ext)
		ext = slices.Compact(ext)
		if l, ok := sameBits(tr.row(tr.grades, i), grades); !ok {
			t.Fatalf("node %d: column %d grade %v, its children's max %v", nd.id, l, tr.row(tr.grades, i)[l], grades[l])
		}
		if !slices.Equal(n.peers(), ext) {
			t.Fatalf("node %d: extent %v, its children's union %v", nd.id, n.peers(), ext)
		}
		for a, m := range derived {
			if math.Float64bits(own[a].Min) != math.Float64bits(m.Min) || math.Float64bits(own[a].Max) != math.Float64bits(m.Max) {
				t.Fatalf("node %d attr %d: Min/Max %v/%v, its children's %v/%v", nd.id, a, own[a].Min, own[a].Max, m.Min, m.Max)
			}
		}
		return true
	})
}

// sameTree holds got to want in preorder, slot by slot: key, count, the
// counts and grades rows and every measure field as bits, the peer extent,
// and the structure (each node's children, in order).
func sameTree(t testing.TB, got, want *Tree) {
	t.Helper()
	if got.cfg != want.cfg || got.CompatibleWith(want) != nil || got.NodeCount() != want.NodeCount() ||
		got.LeafCount() != want.LeafCount() {
		t.Fatalf("decoded tree has config %+v, %d nodes and %d leaves, want %+v, %d and %d",
			got.cfg, got.NodeCount(), got.LeafCount(), want.cfg, want.NodeCount(), want.LeafCount())
	}
	for a := range want.attrs {
		if got.attrs[a].numeric != want.attrs[a].numeric {
			t.Fatalf("attr %d numeric %v, want %v", a, got.attrs[a].numeric, want.attrs[a].numeric)
		}
	}
	var walk func(g, w Node, at string)
	walk = func(g, w Node, at string) {
		gn, wn := g.rec(), w.rec()
		fail := func(what string, gv, wv any) {
			t.Helper()
			t.Fatalf("node %s: %s %v, want %v", at, what, gv, wv)
		}
		if gn.key != wn.key {
			fail("key", gn.key, wn.key)
		}
		if math.Float64bits(gn.count) != math.Float64bits(wn.count) {
			fail("count", gn.count, wn.count)
		}
		if l, ok := sameBits(got.row(got.counts, g.i), want.row(want.counts, w.i)); !ok {
			fail("column "+strconv.Itoa(l)+" count", got.row(got.counts, g.i)[l], want.row(want.counts, w.i)[l])
		}
		if l, ok := sameBits(got.row(got.grades, g.i), want.row(want.grades, w.i)); !ok {
			fail("column "+strconv.Itoa(l)+" grade", got.row(got.grades, g.i)[l], want.row(want.grades, w.i)[l])
		}
		for a, m := range got.measureRow(g.i) {
			if wm := want.measureRow(w.i)[a]; !sameMeasure(m, wm) {
				fail("attr "+strconv.Itoa(a)+" measure", m, wm)
			}
		}
		if !slices.Equal(g.peers(), w.peers()) {
			fail("extent", g.peers(), w.peers())
		}
		gk, wk := children(g), children(w)
		if len(gk) != len(wk) {
			fail("children", len(gk), len(wk))
		}
		for k := range gk {
			walk(gk[k], wk[k], at+"."+strconv.Itoa(k))
		}
	}
	walk(got.Root(), want.Root(), "root")
}

// sameBits reports whether two rows hold the same float64 bits, and the
// first column where they differ.
func sameBits(a, b []float64) (int, bool) {
	for l := range a {
		if math.Float64bits(a[l]) != math.Float64bits(b[l]) {
			return l, false
		}
	}
	return 0, len(a) == len(b)
}

// sameMeasure compares two measures field by field, as bits.
func sameMeasure(a, b cells.Measure) bool {
	_, ok := sameBits([]float64{a.Weight, a.Min, a.Max, a.Sum, a.SumSq}, []float64{b.Weight, b.Min, b.Max, b.Sum, b.SumSq})
	return ok
}

// handNode is one node of a frame built by hand over one categorical
// attribute "a" with labels x and y: a leaf writes its label with grade 1,
// an internal node its non-zero counts.
type handNode struct {
	parent int64
	leaf   bool
	count  float64
	label  uint64     // a leaf's
	counts [2]float64 // an internal node's
	peers  []int64    // a leaf's, as written
}

// handFrame encodes nodes, in order, in the wire layout.
func handFrame(nodes ...handNode) []byte {
	var e wire.Enc
	e.Varint(6) // MaxChildren
	e.Varint(2) // MaxSplitRounds
	e.Uvarint(1)
	e.String("a")
	e.Strings([]string{"x", "y"})
	e.Bool(false)
	e.Uvarint(uint64(len(nodes)))
	for _, n := range nodes {
		e.Varint(n.parent)
		e.Bool(n.leaf)
		e.Float64(n.count)
		if n.leaf {
			e.Uvarint(n.label)
			e.Float64(1)
			e.Uvarint(uint64(len(n.peers)))
			for _, p := range n.peers {
				e.Varint(p)
			}
			continue
		}
		nnz := 0
		for _, c := range n.counts {
			if c != 0 {
				nnz++
			}
		}
		e.Uvarint(uint64(nnz))
		for j, c := range n.counts {
			if c != 0 {
				e.Uvarint(uint64(j))
				e.Float64(c)
			}
		}
	}
	return e.Bytes()
}

// rejectedFrames are frames DecodeWire must refuse, each with a fragment of
// its error.
func rejectedFrames() []struct {
	name, err string
	frame     []byte
} {
	root := handNode{parent: -1, count: 2, counts: [2]float64{1, 1}}
	return []struct {
		name, err string
		frame     []byte
	}{
		{"leaf with children", "leaf 1 has children", handFrame(root,
			handNode{parent: 0, leaf: true, count: 2, label: 0},
			handNode{parent: 1, leaf: true, count: 2, label: 1})},
		{"two leaves, one key", "one key", handFrame(root,
			handNode{parent: 0, leaf: true, count: 1, label: 0},
			handNode{parent: 0, leaf: true, count: 1, label: 0})},
		{"label out of range", "out of vocabulary", handFrame(root,
			handNode{parent: 0, leaf: true, count: 1, label: 0},
			handNode{parent: 0, leaf: true, count: 1, label: 2})},
		{"leaf without weight", "leaf 2 has count", handFrame(root,
			handNode{parent: 0, leaf: true, count: 2, label: 0},
			handNode{parent: 0, leaf: true, count: 0, label: 1})},
		{"leaf root", "root is a leaf", handFrame(handNode{parent: -1, leaf: true, count: 1})},
	}
}

// TestDecodeWireRejects decodes frames that are well-formed up to one
// violation of the layout's invariants: each must fail, with its error.
func TestDecodeWireRejects(t *testing.T) {
	for _, bad := range rejectedFrames() {
		_, err := DecodeWire(wire.NewDec(bad.frame))
		if err == nil || !strings.Contains(err.Error(), bad.err) {
			t.Errorf("%s: decode error %v, want one containing %q", bad.name, err, bad.err)
		}
	}
	good := handFrame(handNode{parent: -1, count: 2, counts: [2]float64{1, 1}},
		handNode{parent: 0, leaf: true, count: 1, label: 0},
		handNode{parent: 0, leaf: true, count: 1, label: 1})
	if _, err := DecodeWire(wire.NewDec(good)); err != nil {
		t.Fatalf("the frames' valid form: %v", err)
	}
}
