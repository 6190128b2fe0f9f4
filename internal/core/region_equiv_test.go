package core

import (
	"fmt"
	"math/rand"
	"testing"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/data"
	"p2psum/internal/p2p"
	"p2psum/internal/saintetiq"
	"p2psum/internal/sim"
	"p2psum/internal/topology"
)

// The region-sharding equivalence suite: the parallel event kernel must
// be indistinguishable from the sequential engine — same reports, same
// counters, same trees — at every region count. Two fixtures cover the
// two partition shapes: disjoint stars (every domain in its own region,
// all cross-region traffic barriered) and one large single domain
// (NearestSeeds collapses everything into region 0, pinning the sharded
// kernel's degenerate mode to the sequential behaviour).

// regionNet builds the transport for one equivalence run: the plain
// sequential Network for regions == 0, the sharded kernel otherwise.
func regionNet(t *testing.T, g *topology.Graph, seed int64, regions int) *p2p.Network {
	t.Helper()
	if regions == 0 {
		return p2p.NewNetwork(sim.New(), g, seed)
	}
	net, err := p2p.NewShardedNetwork(g, seed, regions)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// runRegionStarScenario drives a churny multi-domain protocol scenario
// (graceful and silent departures, modification pushes crossing the α
// threshold, rejoins) over 8 star domains and fingerprints the outcome.
func runRegionStarScenario(t *testing.T, regions int) dispatchFingerprint {
	t.Helper()
	const clusters, size = 8, 8
	g, hubs := topology.DisjointStars(clusters, size, 0.05)
	net := regionNet(t, g, 11, regions)
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
	gen := data.NewPatientGenerator(23, nil)
	for i := 0; i < net.Len(); i++ {
		st := cells.NewStore(mapper)
		st.AddRelation(gen.Generate("db", 20))
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
	if regions > 1 {
		// The System wired domain -> region at assignment time: every
		// cluster member shares its hub's region.
		shard := net.Sharded()
		for c := 0; c < clusters; c++ {
			hr := shard.RegionOf(hubs[c])
			for s := 1; s < size; s++ {
				if got := shard.RegionOf(c*size + s); got != hr {
					t.Fatalf("cluster %d node %d in region %d, hub in %d", c, s, got, hr)
				}
			}
		}
	}
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	net.Settle()

	spoke := func(c, s int) p2p.NodeID { return p2p.NodeID(c*size + s) }
	// One spoke per domain departs gracefully, one silently (§4.3: the
	// next push to it is dropped, the sender re-finds its domain)...
	for c := 0; c < clusters; c++ {
		sys.Leave(spoke(c, 1), true)
		sys.Leave(spoke(c, 2), false)
	}
	net.Settle()
	// ...then settled modification waves push every domain over the
	// α = 0.3 trigger; the triggering wave launches all 8 ring
	// reconciliations inside one Settle window, so sharded runs
	// reconcile the domains concurrently.
	for _, s := range []int{3, 4} {
		for c := 0; c < clusters; c++ {
			sys.MarkModified(spoke(c, s))
		}
		net.Settle()
	}
	// Departed spokes rejoin and a final wave reconciles them back in.
	for c := 0; c < clusters; c++ {
		sys.Join(spoke(c, 1))
		sys.Join(spoke(c, 2))
	}
	net.Settle()
	for _, s := range []int{5, 6} {
		for c := 0; c < clusters; c++ {
			sys.MarkModified(spoke(c, s))
		}
		net.Settle()
	}
	return fingerprintSystem(net, sys)
}

// fingerprintSystem snapshots everything a run reports.
func fingerprintSystem(net *p2p.Network, sys *System) dispatchFingerprint {
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
		if tr := sys.Peer(sp).GlobalSummary(); tr != nil { // protocol level has none
			fp.snaps = append(fp.snaps, tr)
		}
	}
	return fp
}

func TestRegionShardingEquivalenceStars(t *testing.T) {
	base := runRegionStarScenario(t, 0) // sequential engine
	if base.stats.Reconciliations < 8 {
		t.Fatalf("scenario too tame: only %d reconciliations", base.stats.Reconciliations)
	}
	if base.coverage != 1 {
		t.Fatalf("coverage = %v after rejoins, want 1", base.coverage)
	}
	for _, regions := range []int{1, 2, 4, 8} {
		got := runRegionStarScenario(t, regions)
		diffFingerprints(t, fmt.Sprintf("regions=%d vs sequential", regions), base, got)
	}
}

// TestRegionShardingEquivalenceModes is the former window/overrun mode
// table collapsed to its region-count loop: the parallel kernel has one
// mode left, and at few and at many regions it matches the sequential
// engine.
func TestRegionShardingEquivalenceModes(t *testing.T) {
	base := runRegionStarScenario(t, 0) // sequential engine
	for _, regions := range []int{2, 8} {
		got := runRegionStarScenario(t, regions)
		diffFingerprints(t, fmt.Sprintf("regions=%d vs sequential", regions), base, got)
	}
}

// runRegionDomainScenario drives construct + reconciliation waves over
// one 2000-peer power-law domain at protocol level. With a single
// summary peer, NearestSeeds maps every node to region 0 whatever the
// region count — the sharded kernel must still match the sequential
// engine exactly.
func runRegionDomainScenario(t *testing.T, regions int) dispatchFingerprint {
	t.Helper()
	const peers = 2000
	g, err := topology.BarabasiAlbert(peers, 2, nil, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	net := regionNet(t, g, 7, regions)
	cfg := DefaultConfig()
	sys, err := NewSystem(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.ElectSummaryPeers(1)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	for wave := 0; wave < 3; wave++ {
		var ids []p2p.NodeID
		for i := wave; i < peers; i += 5 {
			ids = append(ids, p2p.NodeID(i))
		}
		sys.MarkModifiedAll(ids)
		net.Settle()
	}
	return fingerprintSystem(net, sys)
}

func TestRegionShardingEquivalenceSingleDomain(t *testing.T) {
	if testing.Short() {
		t.Skip("2000-peer fixture")
	}
	base := runRegionDomainScenario(t, 0)
	if base.stats.Reconciliations < 1 {
		t.Fatal("scenario never reconciled")
	}
	for _, regions := range []int{2, 8} {
		got := runRegionDomainScenario(t, regions)
		diffFingerprints(t, fmt.Sprintf("regions=%d vs sequential", regions), base, got)
	}
}
