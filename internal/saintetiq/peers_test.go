package saintetiq

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"p2psum/internal/bk"
	"p2psum/internal/wire"
)

// checkExtents asserts the peer-extent invariants on every node: strictly
// ascending ids, no NoPeer, and an internal node's extent is the union of
// its children's (Definition 3).
func checkExtents(t *testing.T, step string, tr *Tree) {
	t.Helper()
	tr.Walk(func(n Node) bool {
		ids := n.peers()
		for i, p := range ids {
			if p == NoPeer || (i > 0 && ids[i-1] >= p) {
				t.Fatalf("%s: node %d extent %v is not a strictly ascending set of real peers", step, n.ID(), ids)
			}
			if !slices.Contains(n.peers(), p) {
				t.Fatalf("%s: node %d lists %d but HasPeer denies it", step, n.ID(), p)
			}
		}
		if len(ids) != n.PeerCount() {
			t.Fatalf("%s: node %d PeerCount %d != len %v", step, n.ID(), n.PeerCount(), ids)
		}
		if n.rec().kids == 0 {
			return true
		}
		var union []PeerID
		for c := range n.Children() {
			union = append(union, c.peers()...)
		}
		slices.Sort(union)
		if union = slices.Compact(union); !slices.Equal(union, ids) {
			t.Fatalf("%s: node %d extent %v != union of children %v", step, n.ID(), ids, union)
		}
		return true
	})
}

// TestPeerExtentInvariants drives every path that writes an extent —
// Incorporate (host, create, merge, split, leaf demotion, the fast path),
// Clone, MergeLeaves over leaf subsets and a wire round trip — with peer ids
// arriving unordered, repeated and mixed with NoPeer, and checks the
// invariants plus a per-leaf model of who contributed what.
func TestPeerExtentInvariants(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := []Config{DefaultConfig(), {MaxChildren: 3}, {MaxSplitRounds: 2}}[seed%3]
		tr := New(bk.Medical(), cfg)
		model := map[string]map[PeerID]bool{}
		incorporate := func(dst *Tree, store int64) {
			for _, c := range medicalStore(t, store, 30).Cells() {
				peers := make([]PeerID, rng.Intn(4))
				for i := range peers {
					peers[i] = PeerID(rng.Intn(12) - 1) // -1 is NoPeer
				}
				if err := dst.Incorporate(c, peers...); err != nil {
					t.Fatal(err)
				}
				if dst != tr {
					continue
				}
				if model[c.Key()] == nil {
					model[c.Key()] = map[PeerID]bool{}
				}
				for _, p := range peers {
					if p != NoPeer {
						model[c.Key()][p] = true
					}
				}
			}
		}
		incorporate(tr, 100+seed)
		checkExtents(t, "incorporate", tr)

		clone := tr.Clone()
		checkExtents(t, "clone", clone)
		if !clone.LeavesEqual(tr) {
			t.Fatal("clone differs from its source")
		}

		other := New(bk.Medical(), cfg)
		incorporate(other, 200+seed)
		leaves := other.Leaves()
		rng.Shuffle(len(leaves), func(i, j int) { leaves[i], leaves[j] = leaves[j], leaves[i] })
		for _, part := range [][]Node{leaves[:len(leaves)/2], leaves[len(leaves)/2:]} {
			if err := tr.MergeLeaves(other, part); err != nil {
				t.Fatal(err)
			}
			checkExtents(t, "merge leaves", tr)
		}
		for _, leaf := range leaves {
			if model[leaf.Key()] == nil {
				model[leaf.Key()] = map[PeerID]bool{}
			}
			for _, p := range leaf.peers() {
				model[leaf.Key()][p] = true
			}
		}
		checkExtents(t, "clone after source changed", clone)
		if tr.Stats().Merges == 0 || tr.Stats().Hosts == 0 {
			t.Fatalf("seed %d exercised no merge or host: %+v", seed, tr.Stats())
		}

		back, err := DecodeWire(wire.NewDec(encodeTree(tr)))
		if err != nil {
			t.Fatal(err)
		}
		checkExtents(t, "round trip", back)
		if !back.LeavesEqual(tr) {
			t.Fatal("round trip changed the leaves")
		}
		for key, want := range model {
			leaf, ok := back.leaf(key)
			if !ok || leaf.PeerCount() != len(want) {
				t.Fatalf("leaf %q extent %v, model %v", key, leaf.peers(), want)
			}
			for p := range want {
				if !slices.Contains(leaf.peers(), p) {
					t.Fatalf("leaf %q extent %v misses %d", key, leaf.peers(), p)
				}
			}
		}
	}
}

// TestDecodeWireSortsPeers hand-builds a frame whose peer lists are unordered
// and repeat ids: decoding yields the set, ascending.
func TestDecodeWireSortsPeers(t *testing.T) {
	var e wire.Enc
	e.Varint(6) // MaxChildren
	e.Varint(2) // MaxSplitRounds
	e.Uvarint(1)
	e.String("a")
	e.Strings([]string{"x", "y"})
	e.Bool(false)
	e.Uvarint(2) // nodes: root, one leaf
	for _, n := range []struct {
		parent int64
		key    string
		peers  []int64
	}{{-1, "", []int64{9, 2, 9, 7, 2}}, {0, "x", []int64{7, 2, 2}}} {
		e.Varint(n.parent)
		e.String(n.key)
		e.Float64(1)
		e.Uvarint(1) // one descriptor: label 0, count 1, grade 1
		e.Uvarint(0)
		e.Float64(1)
		e.Float64(1)
		for _, f := range []float64{0, math.Inf(1), math.Inf(-1), 0, 0} {
			e.Float64(f)
		}
		e.Uvarint(uint64(len(n.peers)))
		for _, p := range n.peers {
			e.Varint(p)
		}
	}
	tr, err := DecodeWire(wire.NewDec(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Root().peers(); !slices.Equal(got, []PeerID{2, 7, 9}) {
		t.Errorf("root extent = %v, want [2 7 9]", got)
	}
	if leaf, _ := tr.leaf("x"); !slices.Equal(leaf.peers(), []PeerID{2, 7}) {
		t.Errorf("leaf extent = %v, want [2 7]", leaf.peers())
	}
}

// TestNoPeerLeavesExtentEmpty: a summary without provenance is built by
// passing no peer id, or NoPeer; 0 is a real peer.
func TestNoPeerLeavesExtentEmpty(t *testing.T) {
	cs := paperStore(t).Cells()
	tr := New(bk.PaperExample(), DefaultConfig())
	if err := tr.Incorporate(cs[0]); err != nil {
		t.Fatal(err)
	}
	if err := tr.Incorporate(cs[1], NoPeer); err != nil {
		t.Fatal(err)
	}
	tr.Walk(func(n Node) bool {
		if n.PeerCount() != 0 || len(n.peers()) != 0 || slices.Contains(n.peers(), NoPeer) || slices.Contains(n.peers(), 0) {
			t.Errorf("node %d extent %v, want empty", n.ID(), n.peers())
		}
		return true
	})
	if err := tr.Incorporate(cs[2], 0); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(tr.Root().peers(), 0) || tr.Root().PeerCount() != 1 {
		t.Errorf("root extent %v, want [0]", tr.Root().peers())
	}
}
