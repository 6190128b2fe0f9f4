package saintetiq

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"

	"p2psum/internal/bk"
	"p2psum/internal/wire"
)

// localTree summarises a rows-row medical relation owned by one peer.
func localTree(t testing.TB, cfg Config, seed int64, rows int, peer PeerID) *Tree {
	t.Helper()
	tr := New(bk.Medical(), cfg)
	if err := tr.IncorporateStore(medicalStore(t, seed, rows), peer); err != nil {
		t.Fatal(err)
	}
	return tr
}

// mergedTree merges n local summaries (peers 0..n-1, sub-seeds seed+i) into
// a fresh hierarchy: the shape of a reconciliation ring token.
func mergedTree(t testing.TB, cfg Config, seed int64, n, rows int) *Tree {
	t.Helper()
	tr := New(bk.Medical(), cfg)
	for i := 0; i < n; i++ {
		if err := tr.Merge(localTree(t, cfg, seed+int64(i), rows, PeerID(i))); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// goldenTrees builds the three fixed-seed hierarchies the golden hashes, the
// fuzz corpus and the property tests share: a single-peer local summary, a
// clone of a ring merge that keeps merging, and a tight-arity tree without
// splits that absorbs a second summary.
func goldenTrees(t testing.TB) []*Tree {
	t.Helper()
	local := localTree(t, DefaultConfig(), 1, 60, 3)
	ring := mergedTree(t, DefaultConfig(), 10, 8, 60).Clone()
	if err := ring.Merge(localTree(t, DefaultConfig(), 99, 200, 8)); err != nil {
		t.Fatal(err)
	}
	tight := localTree(t, Config{MaxChildren: 3}, 7, 400, 1)
	if err := tight.Merge(local); err != nil {
		t.Fatal(err)
	}
	return []*Tree{local, ring, tight}
}

func encodeTree(tr *Tree) []byte {
	var e wire.Enc
	tr.AppendWire(&e)
	return e.Bytes()
}

// children lists a node's children.
func children(n Node) []Node { return slices.Collect(n.Children()) }

// countRows views a node's count row as one slice per attribute.
func countRows(n Node) [][]float64 {
	rows := make([][]float64, len(n.t.attrs))
	for a := range rows {
		rows[a] = n.t.attrRow(n.t.counts, n.i, a)
	}
	return rows
}

// leaf returns the leaf of a cell key, and whether there is one.
func (t *Tree) leaf(key string) (Node, bool) {
	i, ok := t.byKey[key]
	return Node{t, i}, ok
}

// TestGoldenEncoding pins the three golden trees twice: their wire bytes,
// and the bytes of appendWireV1, the first wire layout, which wrote every
// field of every node. The V1 hashes were recorded before peer extents
// became sorted slices and the operator scoring stopped copying count
// matrices, so they pin the trees in memory; every tree decoded from its
// wire bytes must write them too. Neither table moves for a pure speed
// change; a layout change moves only the wire table. The operator history
// is pinned beside them.
func TestGoldenEncoding(t *testing.T) {
	want := []struct {
		v1, wire string
		stats    OpStats
		epoch    int
	}{
		{"e26ddbf57a1700e7b5c7b3356151b3bc613a73549362f0dd855e5a7bb5c32bcf",
			"875cac8886edc8d2527b7aae31f7e4e2ef4b7bedd5d2132e0b33144ee4f196df",
			OpStats{Incorporations: 53, Hosts: 95, Creates: 27, Merges: 6, Splits: 3}, 126},
		{"6a71c776d8697630617d8d4e0545636e19bbde23990255bf841d18f098def5c7",
			"b2fe2db6d5ff904ade7d14bc73a5d6d664e938a6145fb5cf83a2831785cd1581",
			OpStats{Incorporations: 574, FastPath: 445, Hosts: 416, Creates: 54, Merges: 25, Splits: 10}, 407},
		{"2f7923e30515a8126029c35317aac60f36c8575b9e72e84763d45a9c7945dfb5",
			"934e48e22d479feba5c8838acbff1f0e889660609b0b2a33e8ee607dc4395b25",
			OpStats{Incorporations: 158, FastPath: 47, Hosts: 350, Creates: 52, Merges: 26}, 300},
	}
	sha := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	for i, tr := range goldenTrees(t) {
		w := want[i]
		b := encodeTree(tr)
		back, err := DecodeWire(wire.NewDec(b))
		if err != nil {
			t.Fatalf("tree %d: decode: %v", i, err)
		}
		v1, wv, bv1 := sha(encodeTreeV1(tr)), sha(b), sha(encodeTreeV1(back))
		if v1 != w.v1 || bv1 != w.v1 || wv != w.wire || tr.Stats() != w.stats || tr.epoch != w.epoch {
			t.Errorf("tree %d: v1 sha %s (decoded %s) wire sha %s stats %+v epoch %d, want %s %s %+v %d",
				i, v1, bv1, wv, tr.Stats(), tr.epoch, w.v1, w.wire, w.stats, w.epoch)
		}
	}
}

// encodeTreeV1 writes tr in the first wire layout.
func encodeTreeV1(tr *Tree) []byte {
	var e wire.Enc
	tr.appendWireV1(&e)
	return e.Bytes()
}

// appendWireV1 is AppendWire as the first wire layout wrote it: every field
// of every node, derivable or not. It is kept verbatim, less the counting
// shortcut, to hold trees to the hashes recorded in that layout.
func (t *Tree) appendWireV1(e *wire.Enc) {
	e.Varint(int64(t.cfg.MaxChildren))
	e.Varint(int64(t.cfg.MaxSplitRounds))
	e.Uvarint(uint64(len(t.attrs)))
	for _, a := range t.attrs {
		e.String(a.name)
		e.Strings(a.labels)
		e.Bool(a.numeric)
	}
	e.Uvarint(uint64(t.NodeCount()))
	t.appendNodeV1(e, root, -1, 0)
}

// appendNodeV1 writes the subtree rooted at slot n, whose preorder index is
// idx and whose parent's is parent, and returns the next free index.
func (t *Tree) appendNodeV1(e *wire.Enc, n int32, parent, idx int) int {
	nd := &t.nodes[n]
	e.Varint(int64(parent))
	e.String(nd.key)
	e.Float64(nd.count)
	measures := t.measureRow(n)
	for a := range t.attrs {
		counts, grades := t.attrRow(t.counts, n, a), t.attrRow(t.grades, n, a)
		nnz := 0
		for j := range counts {
			if counts[j] != 0 || grades[j] != 0 {
				nnz++
			}
		}
		e.Uvarint(uint64(nnz))
		for j := range counts {
			if counts[j] != 0 || grades[j] != 0 {
				e.Uvarint(uint64(j))
				e.Float64(counts[j])
				e.Float64(grades[j])
			}
		}
		m := measures[a]
		e.Float64(m.Weight)
		e.Float64(m.Min)
		e.Float64(m.Max)
		e.Float64(m.Sum)
		e.Float64(m.SumSq)
	}
	peers := t.extent(n)
	e.Uvarint(uint64(len(peers)))
	for _, p := range peers {
		e.Varint(int64(p))
	}
	next := idx + 1
	for c := nd.first; c != none; c = t.nodes[c].next {
		next = t.appendNodeV1(e, c, idx, next)
	}
	return next
}
