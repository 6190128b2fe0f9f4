package saintetiq

import (
	"bytes"
	"math/rand"
	"testing"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/wire"
)

// FuzzDecodeWire feeds arbitrary bytes to DecodeWire: it may never panic,
// and whatever it accepts is a valid hierarchy whose re-encoding is a fixed
// point — encode(decode(b)) decodes to the same leaves and encodes to the
// same bytes again (the first re-encoding may differ from b: peer lists come
// back as ascending sets and explicit zero descriptors are dropped).
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
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeWire(wire.NewDec(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted tree is invalid: %v", err)
		}
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
// its rows (checkCaches), its counted length is its written length, and
// those bytes decode and re-encode to themselves.
func checkArena(t *testing.T, tr *Tree) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	checkCaches(t, tr)
	written := encodeTree(tr)
	if n := tr.EncodedSize(); n != len(written) {
		t.Fatalf("counted %d bytes, wrote %d", n, len(written))
	}
	back, err := DecodeWire(wire.NewDec(written))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if again := encodeTree(back); !bytes.Equal(again, written) {
		t.Fatalf("decoded tree re-encodes to %d bytes, not its %d", len(again), len(written))
	}
}
