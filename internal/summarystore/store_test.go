package summarystore_test

import (
	"fmt"
	"sync"
	"testing"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/data"
	"p2psum/internal/saintetiq"
	"p2psum/internal/summarystore"
)

// localTree summarizes `rows` generated patient records under the medical
// BK, tagged with the owning peer — one partner's local summary.
func localTree(t testing.TB, seed int64, rows int, peer saintetiq.PeerID) *saintetiq.Tree {
	t.Helper()
	mapper, err := cells.NewMapper(bk.Medical(), data.PatientSchema())
	if err != nil {
		t.Fatal(err)
	}
	st := cells.NewStore(mapper)
	st.AddRelation(data.NewPatientGenerator(seed, nil).Generate("r", rows))
	tr := saintetiq.New(bk.Medical(), saintetiq.DefaultConfig())
	if err := tr.IncorporateStore(st, peer); err != nil {
		t.Fatal(err)
	}
	return tr
}

// fill merges the same seeded partner workload into every given store.
func fill(t testing.TB, peers, rows int, stores ...*summarystore.Store) {
	t.Helper()
	for p := 0; p < peers; p++ {
		tr := localTree(t, int64(100+p), rows, saintetiq.PeerID(p))
		for _, st := range stores {
			if err := st.Merge(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func approx(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-6*(1+a)
}

// TestShardedEquivalence: a sharded store and the one-shard store describe
// the same data identically at the leaf level for every shard count, under
// both partition strategies.
func TestShardedEquivalence(t *testing.T) {
	b := bk.Medical()
	cfg := saintetiq.DefaultConfig()
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			single := summarystore.New(b, cfg, 1)
			sharded := summarystore.New(b, cfg, shards)
			hashed := summarystore.NewByKeyHash(b, cfg, shards)
			fill(t, 5, 60, single, sharded, hashed)

			for name, st := range map[string]*summarystore.Store{"default": sharded, "hash": hashed} {
				if st.LeafCount() != single.LeafCount() {
					t.Errorf("%s: LeafCount = %d, single = %d", name, st.LeafCount(), single.LeafCount())
				}
				if !approx(st.Weight(), single.Weight()) {
					t.Errorf("%s: Weight = %v, single = %v", name, st.Weight(), single.Weight())
				}
				if !single.Snapshot().LeavesEqual(st.Snapshot()) {
					t.Errorf("%s: snapshot leaves differ from one-shard store", name)
				}
			}
			if shards > 1 && sharded.NumShards() != shards {
				t.Errorf("NumShards = %d, want %d", sharded.NumShards(), shards)
			}
		})
	}
}

// TestShardedOneShardIdentical: a one-shard store is the paper's single
// tree — structurally identical to a bare tree built by tree.Merge, not
// just leaf-equivalent — after merges, after installing a changed version
// (the shard holds that version itself) and through Snapshot (the live
// tree).
func TestShardedOneShardIdentical(t *testing.T) {
	b := bk.Medical()
	cfg := saintetiq.DefaultConfig()
	st := summarystore.New(b, cfg, 1)
	bare := saintetiq.New(b, cfg)
	for p := 0; p < 4; p++ {
		tr := localTree(t, int64(100+p), 50, saintetiq.PeerID(p))
		if err := st.Merge(tr); err != nil {
			t.Fatal(err)
		}
		if err := bare.Merge(tr); err != nil {
			t.Fatal(err)
		}
	}
	live := func() *saintetiq.Tree {
		var tr *saintetiq.Tree
		st.View(0, func(t *saintetiq.Tree) { tr = t })
		return tr
	}
	if live().String() != bare.String() {
		t.Error("after merges: one-shard store diverged structurally from tree.Merge")
	}
	if st.Snapshot() != live() {
		t.Error("one-shard Snapshot is not the live tree")
	}

	next := bare.Clone()
	if err := next.Merge(localTree(t, 200, 30, 9)); err != nil {
		t.Fatal(err)
	}
	want := next.String()
	if n := st.SwapFrom(next); n != 1 {
		t.Fatalf("changed install swapped %d shards, want 1", n)
	}
	if live() != next {
		t.Error("one-shard install rebuilt the version instead of holding it")
	}
	if got := st.Snapshot().String(); got != want {
		t.Error("after install: one-shard Snapshot diverged structurally from the installed version")
	}
}

// TestShardedDeterminism: concurrent per-shard merges never change the
// outcome — two identically fed stores are shard-for-shard identical.
func TestShardedDeterminism(t *testing.T) {
	b := bk.Medical()
	cfg := saintetiq.DefaultConfig()
	s1 := summarystore.New(b, cfg, 4)
	s2 := summarystore.New(b, cfg, 4)
	fill(t, 6, 40, s1, s2)
	for i := 0; i < s1.NumShards(); i++ {
		var r1, r2 string
		s1.View(i, func(tr *saintetiq.Tree) { r1 = tr.String() })
		s2.View(i, func(tr *saintetiq.Tree) { r2 = tr.String() })
		if r1 != r2 {
			t.Fatalf("shard %d differs between identical builds", i)
		}
	}
}

// TestPartitionCoversDisjointly: every leaf lands in exactly one shard, so
// the shard leaf counts sum to the total.
func TestPartitionCoversDisjointly(t *testing.T) {
	for _, newStore := range map[string]func(*bk.BK, saintetiq.Config, int) *summarystore.Store{
		"descriptor": summarystore.New,
		"hash":       summarystore.NewByKeyHash,
	} {
		st := newStore(bk.Medical(), saintetiq.DefaultConfig(), 4)
		fill(t, 3, 50, st)
		sum := 0
		for i := 0; i < st.NumShards(); i++ {
			st.View(i, func(tr *saintetiq.Tree) { sum += tr.LeafCount() })
		}
		if sum != st.LeafCount() {
			t.Errorf("shard leaf counts sum to %d, store has %d", sum, st.LeafCount())
		}
	}
}

// TestSwapFromDeltas: installing an identical version swaps nothing; a
// version with one changed leaf swaps exactly that leaf's shard; the store
// ends leaf-equal to the installed version.
func TestSwapFromDeltas(t *testing.T) {
	st := summarystore.NewByKeyHash(bk.Medical(), saintetiq.DefaultConfig(), 4)
	fill(t, 4, 60, st)

	base := st.Snapshot()
	if n := st.SwapFrom(base); n != 0 {
		t.Errorf("unchanged SwapFrom replaced %d shards, want 0", n)
	}

	// Bump one leaf: its shard — and only its shard — must swap.
	next := base.Clone()
	mapper, err := cells.NewMapper(bk.Medical(), data.PatientSchema())
	if err != nil {
		t.Fatal(err)
	}
	one := cells.NewStore(mapper)
	one.AddRelation(data.NewPatientGenerator(100, nil).Generate("r", 1))
	if err := next.Incorporate(one.Cells()[0], 0); err != nil {
		t.Fatal(err)
	}
	if n := st.SwapFrom(next); n != 1 {
		t.Errorf("one-leaf delta swapped %d shards, want 1", n)
	}
	if !st.Snapshot().LeavesEqual(next) {
		t.Error("store does not match the installed version")
	}

	// nil clears the store.
	if n := st.SwapFrom(nil); n != 4 {
		t.Errorf("clearing SwapFrom(nil) swapped %d shards, want 4", n)
	}
	if st.LeafCount() != 0 {
		t.Error("store not empty after SwapFrom(nil)")
	}
}

// TestOneShardSwapFrom: the one-shard store follows the shared install
// rule — a version with unchanged leaves keeps the warm tree and its
// generation, a changed version is installed as is, nil clears.
func TestOneShardSwapFrom(t *testing.T) {
	st := summarystore.New(bk.Medical(), saintetiq.DefaultConfig(), 1)
	fill(t, 2, 30, st)
	live, gen := st.Snapshot(), st.Generation(0)
	if n := st.SwapFrom(live.Clone()); n != 0 {
		t.Errorf("unchanged SwapFrom = %d, want 0", n)
	}
	if st.Snapshot() != live || st.Generation(0) != gen {
		t.Error("unchanged install replaced the tree or moved the generation")
	}

	next := live.Clone()
	if err := next.Merge(localTree(t, 500, 10, 7)); err != nil {
		t.Fatal(err)
	}
	if n := st.SwapFrom(next); n != 1 {
		t.Errorf("changed SwapFrom = %d, want 1", n)
	}
	if st.Snapshot() != next || st.Generation(0) != gen+1 {
		t.Error("changed install did not take the version as is and advance the generation")
	}

	if n := st.SwapFrom(nil); n != 1 {
		t.Errorf("SwapFrom(nil) = %d, want 1", n)
	}
	if st.LeafCount() != 0 {
		t.Error("one-shard store not empty after SwapFrom(nil)")
	}
}

// TestConcurrentMergeAndRead: merges and reads from many goroutines stay
// data-race free (exercised under -race in CI) and end with the same
// content as a sequential build.
func TestConcurrentMergeAndRead(t *testing.T) {
	b := bk.Medical()
	cfg := saintetiq.DefaultConfig()
	st := summarystore.New(b, cfg, 4)
	seq := summarystore.New(b, cfg, 1)
	const peers = 8
	trees := make([]*saintetiq.Tree, peers)
	for p := range trees {
		trees[p] = localTree(t, int64(300+p), 30, saintetiq.PeerID(p))
		if err := seq.Merge(trees[p]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for p := 0; p < peers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			if err := st.Merge(trees[p]); err != nil {
				t.Error(err)
			}
		}(p)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = st.LeafCount()
			_ = st.Weight()
		}()
	}
	wg.Wait()
	if st.LeafCount() != seq.LeafCount() {
		t.Errorf("concurrent build has %d leaves, sequential %d", st.LeafCount(), seq.LeafCount())
	}
	if !st.Snapshot().LeavesEqual(seq.Snapshot()) {
		t.Error("concurrent build diverged from sequential content")
	}
}
