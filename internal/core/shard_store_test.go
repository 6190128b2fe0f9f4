package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/data"
	"p2psum/internal/p2p"
	"p2psum/internal/query"
	"p2psum/internal/saintetiq"
	"p2psum/internal/sim"
)

// newDataSystem builds a data-level system over n peers with seeded local
// summaries and the given store shard count.
func newDataSystem(t *testing.T, n int, seed int64, shards int) (*System, *sim.Engine) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.DataLevel = true
	cfg.BK = bk.Medical()
	cfg.Shards = shards
	sys, e := newTestSystem(t, n, seed, cfg)
	mapper, err := cells.NewMapper(cfg.BK, data.PatientSchema())
	if err != nil {
		t.Fatal(err)
	}
	gen := data.NewPatientGenerator(seed+7, nil)
	for i := 0; i < n; i++ {
		st := cells.NewStore(mapper)
		st.AddRelation(gen.Generate("db", 35))
		tr := saintetiq.New(cfg.BK, cfg.TreeCfg)
		if err := tr.IncorporateStore(st, saintetiq.PeerID(i)); err != nil {
			t.Fatal(err)
		}
		sys.SetLocalTree(p2p.NodeID(i), tr)
	}
	return sys, e
}

// TestShardedSystemEquivalence: the same protocol run over the same data
// yields layout-invariant domain state whatever the store shard count —
// identical protocol stats, leaf/weight report counters and fanned-out
// query results, through construction and a full reconciliation.
func TestShardedSystemEquivalence(t *testing.T) {
	const n, seed = 28, 21
	build := func(shards int) (*System, *sim.Engine) {
		sys, e := newDataSystem(t, n, seed, shards)
		sys.ElectSummaryPeers(1)
		if err := sys.Construct(); err != nil {
			t.Fatal(err)
		}
		// Trigger a full reconciliation so the per-shard swap path runs.
		for _, p := range sys.Peer(sys.SummaryPeers()[0]).CooperationList().Partners() {
			sys.MarkModified(p)
		}
		e.Run()
		return sys, e
	}
	base, _ := build(1)
	baseSP := base.SummaryPeers()[0]
	baseReport := reportOf(base, baseSP)
	if base.Stats().Reconciliations == 0 {
		t.Fatal("baseline run reconciled nothing")
	}

	q, err := query.Reformulate(bk.Medical(), []string{"age", "bmi"},
		[]query.Predicate{{Attr: "age", Op: query.Lt, Num: 40}})
	if err != nil {
		t.Fatal(err)
	}
	baseAns, err := query.AnswerStore(base.Peer(baseSP).SummaryStore(), q)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sys, _ := build(shards)
			if sys.Stats() != base.Stats() {
				t.Errorf("protocol stats diverged: %+v vs %+v", sys.Stats(), base.Stats())
			}
			sp := sys.SummaryPeers()[0]
			r := reportOf(sys, sp)
			if r.SummaryShards != shards {
				t.Errorf("report shards = %d, want %d", r.SummaryShards, shards)
			}
			if r.SummaryLeaves != baseReport.SummaryLeaves {
				t.Errorf("leaves = %d, single-tree run has %d", r.SummaryLeaves, baseReport.SummaryLeaves)
			}
			if d := r.SummaryWeight - baseReport.SummaryWeight; d > 1e-6 || d < -1e-6 {
				t.Errorf("weight = %g, single-tree run has %g", r.SummaryWeight, baseReport.SummaryWeight)
			}
			if r.Partners != baseReport.Partners || r.StaleFraction != baseReport.StaleFraction {
				t.Errorf("membership state diverged: %+v vs %+v", r, baseReport)
			}
			// The sharded store answers queries identically on the
			// structure-invariant outputs.
			ans, err := query.AnswerStore(sys.Peer(sp).SummaryStore(), q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ans.Peers, baseAns.Peers) {
				t.Errorf("query peers %v, single-tree run %v", ans.Peers, baseAns.Peers)
			}
			if d := ans.Weight - baseAns.Weight; d > 1e-6 || d < -1e-6 {
				t.Errorf("query weight %g, single-tree run %g", ans.Weight, baseAns.Weight)
			}
			// And the snapshot agrees leaf-for-leaf with the single tree.
			if !sys.Peer(sp).GlobalSummary().LeavesEqual(base.Peer(baseSP).GlobalSummary()) {
				t.Error("sharded snapshot leaves differ from the single-tree summary")
			}
		})
	}
}

// TestShardedReportString: a multi-shard domain advertises its shard count
// in the report line.
func TestShardedReportString(t *testing.T) {
	sys, _ := newDataSystem(t, 16, 5, 4)
	sys.ElectSummaryPeers(1)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	r := reportOf(sys, sys.SummaryPeers()[0])
	if r.SummaryShards != 4 {
		t.Fatalf("SummaryShards = %d", r.SummaryShards)
	}
	if s := r.String(); !strings.Contains(s, "shards=4") {
		t.Errorf("report %q does not mention shards", s)
	}
}
