package core

import (
	"reflect"
	"testing"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/data"
	"p2psum/internal/p2p"
	"p2psum/internal/saintetiq"
	"p2psum/internal/sim"
	"p2psum/internal/topology"
)

// The transport equivalence check: on a fixture with no cross-domain
// message races, the same protocol scenario must produce bit-identical
// reports on the concurrent channel transport and on the deterministic
// discrete-event transport. The fixture is DisjointStars: fully
// independent star domains, where every protocol step is a single causal
// chain (broadcast to leaves, pushes, the sorted-ring reconciliation), so
// even the wall-clock channel transport has exactly one observable
// outcome. One wave of the workload triggers all four domains' ring
// reconciliations inside a single Settle window, so their hops interleave
// on the channel transport's dispatcher while producing the same reports.

const (
	equivClusters = 4
	equivSize     = 8 // hub + 7 spokes
)

// dispatchFingerprint is everything a run reports: message/byte counters,
// protocol stats, per-domain reports, and the reconciled global summaries.
type dispatchFingerprint struct {
	counts   map[string]int64
	bytes    map[string]int64
	stats    Stats
	reports  []string
	coverage float64
	snaps    []*saintetiq.Tree
}

// runDispatchScenario drives the deterministic multi-domain scenario on
// either transport and fingerprints the outcome.
func runDispatchScenario(t *testing.T, useSim bool) dispatchFingerprint {
	t.Helper()
	g, hubs := topology.DisjointStars(equivClusters, equivSize, 0.05)
	var net p2p.Transport
	if useSim {
		net = p2p.NewNetwork(sim.New(), g, 3)
	} else {
		ct := p2p.NewChannelTransport(g, 3, p2p.ChannelConfig{})
		t.Cleanup(ct.Close)
		net = ct
	}
	cfg := DefaultConfig()
	cfg.Alpha = 0.3
	cfg.DataLevel = true
	cfg.BK = bk.Medical()
	sys, err := NewSystem(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := cells.NewMapper(cfg.BK, data.PatientSchema())
	if err != nil {
		t.Fatal(err)
	}
	gen := data.NewPatientGenerator(17, nil)
	for i := 0; i < net.Len(); i++ {
		st := cells.NewStore(mapper)
		st.AddRelation(gen.Generate("db", 30))
		tr := saintetiq.New(cfg.BK, cfg.TreeCfg)
		if err := tr.IncorporateStore(st, saintetiq.PeerID(i)); err != nil {
			t.Fatal(err)
		}
		sys.SetLocalTree(p2p.NodeID(i), tr)
	}
	ids := make([]p2p.NodeID, len(hubs))
	for i, h := range hubs {
		ids[i] = p2p.NodeID(h)
	}
	sys.AssignSummaryPeers(ids)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	net.Settle()

	spoke := func(c, s int) p2p.NodeID { return p2p.NodeID(c*equivSize + s) }
	// One spoke per domain departs gracefully (its description turns
	// stale), then two settled modification pushes bring every domain to
	// the brink of the α = 0.3 trigger (3 of 7 stale crosses it)...
	for c := 0; c < equivClusters; c++ {
		sys.Leave(spoke(c, 1), true)
		net.Settle()
	}
	for _, s := range []int{2, 3} {
		for c := 0; c < equivClusters; c++ {
			sys.MarkModified(spoke(c, s))
			net.Settle()
		}
	}
	// ...and the triggering push of every domain launches inside ONE
	// settle window: on the channel transport the four ring
	// reconciliations (real hierarchy merges, hop by hop around the
	// sorted ring) interleave on the dispatcher. Each domain is a single
	// causal chain, so the outcome is still deterministic.
	for c := 0; c < equivClusters; c++ {
		sys.MarkModified(spoke(c, 4))
	}
	net.Settle()
	// The departed spokes rejoin (flagged stale for the next pull), and a
	// second settled wave reconciles their data back in.
	for c := 0; c < equivClusters; c++ {
		sys.Join(spoke(c, 1))
		net.Settle()
	}
	for _, s := range []int{5, 6} {
		for c := 0; c < equivClusters; c++ {
			sys.MarkModified(spoke(c, s))
			net.Settle()
		}
	}

	fp := dispatchFingerprint{
		counts:   make(map[string]int64),
		bytes:    make(map[string]int64),
		stats:    sys.Stats(),
		coverage: sys.Coverage(),
	}
	for _, name := range net.Counter().Names() {
		fp.counts[name] = net.Counter().Get(name)
	}
	for _, name := range net.Bytes().Names() {
		fp.bytes[name] = net.Bytes().Get(name)
	}
	for _, r := range sys.ReportAll() {
		fp.reports = append(fp.reports, r.String())
	}
	for _, sp := range sys.SummaryPeers() {
		fp.snaps = append(fp.snaps, sys.Peer(sp).GlobalSummary())
	}
	return fp
}

// diffFingerprints fails the test on the first mismatch between two runs.
func diffFingerprints(t *testing.T, label string, want, got dispatchFingerprint) {
	t.Helper()
	if !reflect.DeepEqual(want.counts, got.counts) {
		t.Errorf("%s: message counts differ:\nwant %v\ngot  %v", label, want.counts, got.counts)
	}
	if !reflect.DeepEqual(want.bytes, got.bytes) {
		t.Errorf("%s: byte counts differ:\nwant %v\ngot  %v", label, want.bytes, got.bytes)
	}
	if want.stats != got.stats {
		t.Errorf("%s: stats differ:\nwant %+v\ngot  %+v", label, want.stats, got.stats)
	}
	if !reflect.DeepEqual(want.reports, got.reports) {
		t.Errorf("%s: domain reports differ:\nwant %v\ngot  %v", label, want.reports, got.reports)
	}
	if want.coverage != got.coverage {
		t.Errorf("%s: coverage %v vs %v", label, want.coverage, got.coverage)
	}
	if len(want.snaps) != len(got.snaps) {
		t.Fatalf("%s: %d vs %d global summaries", label, len(want.snaps), len(got.snaps))
	}
	for i := range want.snaps {
		if !want.snaps[i].LeavesEqual(got.snaps[i]) {
			t.Errorf("%s: domain %d global summaries diverge at the leaf level", label, i)
		}
	}
}

// TestChannelMatchesEventEngine: the channel transport's reports are
// bit-identical to the deterministic discrete-event transport's on the
// race-free multi-domain scenario.
func TestChannelMatchesEventEngine(t *testing.T) {
	base := runDispatchScenario(t, false)
	if base.stats.Reconciliations < 2*equivClusters {
		t.Fatalf("scenario too tame: only %d reconciliations", base.stats.Reconciliations)
	}
	if base.coverage != 1 {
		t.Fatalf("coverage = %v after rejoins, want 1", base.coverage)
	}
	diffFingerprints(t, "channel vs discrete-event", runDispatchScenario(t, true), base)
}
