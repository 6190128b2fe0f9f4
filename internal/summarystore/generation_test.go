package summarystore_test

import (
	"fmt"
	"testing"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/data"
	"p2psum/internal/saintetiq"
	"p2psum/internal/summarystore"
)

// diseaseTree builds a local summary whose records all carry one disease,
// so under the descriptor-range partition every leaf lands in that
// disease's shard.
func diseaseTree(t testing.TB, disease string, ages []float64, peer saintetiq.PeerID) *saintetiq.Tree {
	t.Helper()
	rel := data.NewRelation("r", data.PatientSchema())
	for i, age := range ages {
		rel.MustInsert(data.Record{
			ID:     fmt.Sprintf("%s-%d", disease, i),
			Values: []data.Value{data.NumValue(age), data.StrValue("female"), data.NumValue(20), data.StrValue(disease)},
		})
	}
	mapper, err := cells.NewMapper(bk.Medical(), data.PatientSchema())
	if err != nil {
		t.Fatal(err)
	}
	st := cells.NewStore(mapper)
	st.AddRelation(rel)
	tr := saintetiq.New(bk.Medical(), saintetiq.DefaultConfig())
	if err := tr.IncorporateStore(st, peer); err != nil {
		t.Fatal(err)
	}
	return tr
}

// gens snapshots every shard's generation.
func gens(st *summarystore.Store) []uint64 {
	out := make([]uint64, st.NumShards())
	for i := range out {
		out[i] = st.Generation(i)
	}
	return out
}

// TestOneShardGeneration: the one-shard store's generation advances on
// every content change and only on content changes — an install whose
// leaves are unchanged keeps it, as on every shard of a larger store.
func TestOneShardGeneration(t *testing.T) {
	st := summarystore.New(bk.Medical(), saintetiq.DefaultConfig(), 1)
	if g := st.Generation(0); g != 0 {
		t.Fatalf("fresh store generation = %d, want 0", g)
	}
	empty := saintetiq.New(bk.Medical(), saintetiq.DefaultConfig())
	if err := st.Merge(empty); err != nil {
		t.Fatal(err)
	}
	if g := st.Generation(0); g != 0 {
		t.Fatalf("empty merge bumped generation to %d", g)
	}
	if err := st.Merge(diseaseTree(t, "anorexia", []float64{15, 18}, 1)); err != nil {
		t.Fatal(err)
	}
	if g := st.Generation(0); g != 1 {
		t.Fatalf("after merge generation = %d, want 1", g)
	}
	st.SwapFrom(diseaseTree(t, "malaria", []float64{30}, 2))
	if g := st.Generation(0); g != 2 {
		t.Fatalf("after swap generation = %d, want 2", g)
	}
	if swapped := st.SwapFrom(diseaseTree(t, "malaria", []float64{30}, 2)); swapped != 0 {
		t.Fatalf("identical install swapped %d shards, want 0", swapped)
	}
	if g := st.Generation(0); g != 2 {
		t.Fatalf("identical install moved generation to %d, want 2", g)
	}
}

// TestShardedGenerationPerShard: merges and per-shard-delta installs bump
// exactly the touched shards' generations — the property the serving-edge
// cache keys on. Re-installing identical content bumps nothing.
func TestShardedGenerationPerShard(t *testing.T) {
	b := bk.Medical()
	const shards = 4
	st := summarystore.New(b, saintetiq.DefaultConfig(), shards) // descriptor partition on disease
	diseaseAttr := 3
	shardOf := func(disease string) int {
		idx := b.Attrs()[diseaseAttr].LabelIndex(disease)
		if idx < 0 {
			t.Fatalf("unknown disease %q", disease)
		}
		cands := st.CandidateShards(diseaseAttr, []int{idx})
		if len(cands) != 1 {
			t.Fatalf("disease %q: candidate shards = %v, want exactly one", disease, cands)
		}
		return cands[0]
	}
	anorexia, malaria := shardOf("anorexia"), shardOf("malaria")
	if anorexia == malaria {
		t.Fatalf("test needs distinct shards, got %d for both", anorexia)
	}

	before := gens(st)
	if err := st.Merge(diseaseTree(t, "anorexia", []float64{15, 18}, 1)); err != nil {
		t.Fatal(err)
	}
	after := gens(st)
	for i := range after {
		want := before[i]
		if i == anorexia {
			want++
		}
		if after[i] != want {
			t.Errorf("after anorexia merge: shard %d generation = %d, want %d", i, after[i], want)
		}
	}

	// Installing the store's own content back is a no-op: every shard's
	// leaves are unchanged, so no shard swaps and no generation moves.
	before = gens(st)
	if swapped := st.SwapFrom(st.Snapshot()); swapped != 0 {
		t.Fatalf("identical install swapped %d shards, want 0", swapped)
	}
	if after := gens(st); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("identical install moved generations: %v -> %v", before, after)
	}

	// A version that only adds malaria leaves swaps exactly malaria's
	// shard; anorexia's shard keeps its tree and its generation.
	newGS := st.Snapshot()
	if err := newGS.Merge(diseaseTree(t, "malaria", []float64{30, 35}, 2)); err != nil {
		t.Fatal(err)
	}
	before = gens(st)
	if swapped := st.SwapFrom(newGS); swapped != 1 {
		t.Fatalf("malaria delta swapped %d shards, want 1", swapped)
	}
	after = gens(st)
	for i := range after {
		want := before[i]
		if i == malaria {
			want++
		}
		if after[i] != want {
			t.Errorf("after malaria install: shard %d generation = %d, want %d", i, after[i], want)
		}
	}
}
