package summarystore_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/data"
	"p2psum/internal/query"
	"p2psum/internal/saintetiq"
	"p2psum/internal/summarystore"
)

// The store benchmarks compare the paper's single-tree layout (the
// one-shard store) against more shards on the two paths sharding targets:
//
//   - concurrent query throughput while the domain keeps merging partner
//     updates (the single tree write-locks everything per merge; shards
//     localize the stall), and
//   - the reconciliation refresh paths: merging a partner's update tree
//     (sharded: concurrent per-shard inserts into smaller hierarchies) and
//     installing a reconciled version (sharded: split + per-shard delta
//     swap vs the single tree installing the version itself after one
//     leaf comparison — the price paid for not stalling readers).

func benchTree(b *testing.B, seed int64, rows int, peer saintetiq.PeerID) *saintetiq.Tree {
	b.Helper()
	mapper, err := cells.NewMapper(bk.Medical(), data.PatientSchema())
	if err != nil {
		b.Fatal(err)
	}
	cs := cells.NewStore(mapper)
	cs.AddRelation(data.NewPatientGenerator(seed, nil).Generate("r", rows))
	tr := saintetiq.New(bk.Medical(), saintetiq.DefaultConfig())
	if err := tr.IncorporateStore(cs, peer); err != nil {
		b.Fatal(err)
	}
	return tr
}

func benchStore(b *testing.B, shards, peers, rows int) *summarystore.Store {
	b.Helper()
	st := summarystore.New(bk.Medical(), saintetiq.DefaultConfig(), shards)
	for p := 0; p < peers; p++ {
		if err := st.Merge(benchTree(b, int64(900+p), rows, saintetiq.PeerID(p))); err != nil {
			b.Fatal(err)
		}
	}
	return st
}

// benchQuery is a paper-style selection ("female anorexia or influenza
// patients under 45"): like the paper's flagship examples it constrains the
// disease attribute — the widest vocabulary and therefore the default
// partition attribute, so the sharded fan-out prunes to the clause's
// shards.
func benchQuery(b *testing.B) query.Query {
	b.Helper()
	q, err := query.Reformulate(bk.Medical(), []string{"age", "bmi"},
		[]query.Predicate{
			{Attr: "disease", Op: query.In, Strs: []string{"anorexia", "influenza"}},
			{Attr: "age", Op: query.Lt, Num: 45},
			{Attr: "sex", Op: query.Eq, Strs: []string{"female"}},
		})
	if err != nil {
		b.Fatal(err)
	}
	return q
}

var shardCounts = []int{1, 2, 4, 8}

func shardName(n int) string {
	if n == 1 {
		return "single"
	}
	return fmt.Sprintf("sharded-%d", n)
}

// BenchmarkStoreConcurrentQuery measures aggregate throughput on the mixed
// load a summary peer actually serves: concurrent clients issuing queries
// with partner refreshes interleaved (one refresh per 32 operations, each
// merging a partner-sized update — the unit localsum and ring
// reconciliation ship). The single tree walks the whole summary per query
// and write-locks all of it per refresh; the sharded store prunes each
// query to the clause's candidate shards and localizes each refresh to the
// shards owning its leaves, so at >= 4 shards throughput must come out
// ahead.
func BenchmarkStoreConcurrentQuery(b *testing.B) {
	for _, shards := range shardCounts {
		b.Run(shardName(shards), func(b *testing.B) {
			st := benchStore(b, shards, 12, 120)
			q := benchQuery(b)
			var deltas [4]*saintetiq.Tree
			for i := range deltas {
				deltas[i] = benchTree(b, int64(990+i), 40, saintetiq.PeerID(90+i))
			}
			var mergeSeq atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					i++
					if i%32 == 0 {
						d := deltas[int(mergeSeq.Add(1))%len(deltas)]
						if err := st.Merge(d); err != nil {
							b.Error(err)
							return
						}
						continue
					}
					if _, err := query.AnswerStore(st, q); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkStoreMerge measures the reconciliation-style refresh latency of
// folding one partner's update tree into a populated store. The sharded
// store splits the work across per-shard goroutines inserting into smaller
// hierarchies.
func BenchmarkStoreMerge(b *testing.B) {
	for _, shards := range shardCounts {
		b.Run(shardName(shards), func(b *testing.B) {
			st := benchStore(b, shards, 12, 120)
			delta := benchTree(b, 991, 200, saintetiq.PeerID(50))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.Merge(delta); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreSwapFrom measures installing a reconciled global summary.
// The single tree compares leaves and installs the version itself; the
// sharded store pays the split and the per-shard delta comparison — the
// cost of keeping readers unstalled and unchanged shards warm.
func BenchmarkStoreSwapFrom(b *testing.B) {
	for _, shards := range shardCounts {
		b.Run(shardName(shards), func(b *testing.B) {
			st := benchStore(b, shards, 12, 120)
			versions := [2]*saintetiq.Tree{
				benchTree(b, 992, 800, saintetiq.PeerID(1)),
				benchTree(b, 993, 800, saintetiq.PeerID(2)),
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.SwapFrom(versions[i%2])
			}
		})
	}
}

// BenchmarkStoreQueryLatency measures one query on an otherwise idle
// store: compiling it, walking its candidate shards one after another on
// the calling goroutine and building the merged answer. CI gates its
// allocs/op, a count that does not follow host load the way the time does.
func BenchmarkStoreQueryLatency(b *testing.B) {
	for _, shards := range shardCounts {
		b.Run(shardName(shards), func(b *testing.B) {
			st := benchStore(b, shards, 12, 120)
			q := benchQuery(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := query.AnswerStore(st, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
