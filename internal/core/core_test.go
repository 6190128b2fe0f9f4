package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/data"
	"p2psum/internal/p2p"
	"p2psum/internal/saintetiq"
	"p2psum/internal/sim"
	"p2psum/internal/topology"
)

func newTestSystem(t *testing.T, n int, seed int64, cfg Config) (*System, *sim.Engine) {
	t.Helper()
	g, err := topology.BarabasiAlbert(n, 2, nil, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New()
	net := p2p.NewNetwork(e, g, seed)
	sys, err := NewSystem(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, e
}

func TestFreshnessString(t *testing.T) {
	if Fresh.String() != "fresh" || Stale.String() != "stale" || Unavailable.String() != "unavailable" {
		t.Error("freshness names wrong")
	}
	if Freshness(9).String() == "" {
		t.Error("unknown freshness renders empty")
	}
}

func TestCooperationList(t *testing.T) {
	cl := NewCooperationList(OneBit)
	cl.Set(3, Fresh)
	cl.Set(1, Stale)
	cl.Set(2, Unavailable) // folded to Stale in one-bit mode
	if cl.Len() != 3 {
		t.Fatalf("Len = %d", cl.Len())
	}
	if v, _ := cl.Get(2); v != Stale {
		t.Errorf("one-bit fold failed: %v", v)
	}
	if got := cl.Partners(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("Partners = %v", got)
	}
	if got := cl.FreshPeers(); len(got) != 1 || got[0] != 3 {
		t.Errorf("FreshPeers = %v", got)
	}
	if got := cl.StalePeers(); len(got) != 2 {
		t.Errorf("StalePeers = %v", got)
	}
	if f := cl.StaleFraction(); f < 0.66 || f > 0.67 {
		t.Errorf("StaleFraction = %g, want 2/3", f)
	}
	cl.ResetAll()
	if cl.StaleFraction() != 0 {
		t.Error("ResetAll failed")
	}
	cl.Remove(1)
	if cl.Has(1) || cl.Len() != 2 {
		t.Error("Remove failed")
	}
	if NewCooperationList(OneBit).StaleFraction() != 0 {
		t.Error("empty list fraction nonzero")
	}
	if s := cl.String(); s == "" {
		t.Error("String empty")
	}
}

func TestCooperationListTwoBit(t *testing.T) {
	cl := NewCooperationList(TwoBit)
	cl.Set(1, Unavailable)
	cl.Set(2, Fresh)
	if v, _ := cl.Get(1); v != Unavailable {
		t.Errorf("two-bit kept %v", v)
	}
	// Literal Σv/|CL| = 2/2 = 1.
	if f := cl.StaleFraction(); f != 1 {
		t.Errorf("StaleFraction = %g, want 1 (literal sum)", f)
	}
}

func TestNewSystemValidation(t *testing.T) {
	g, _ := topology.BarabasiAlbert(10, 2, nil, rand.New(rand.NewSource(1)))
	net := p2p.NewNetwork(sim.New(), g, 1)
	bad := []Config{
		{Alpha: 0, ConstructionTTL: 2, FindBudget: 8},
		{Alpha: 1.5, ConstructionTTL: 2, FindBudget: 8},
		{Alpha: 0.3, ConstructionTTL: 0, FindBudget: 8},
		{Alpha: 0.3, ConstructionTTL: 2, FindBudget: 0},
		{Alpha: 0.3, ConstructionTTL: 2, FindBudget: 8, DataLevel: true}, // no BK
	}
	for i, cfg := range bad {
		if _, err := NewSystem(net, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestConstructionCoversNetwork(t *testing.T) {
	sys, _ := newTestSystem(t, 300, 1, DefaultConfig())
	sps := sys.ElectSummaryPeers(6)
	if len(sps) != 6 {
		t.Fatalf("elected %d SPs", len(sps))
	}
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	if cov := sys.Coverage(); cov != 1 {
		t.Errorf("coverage = %g, want 1 (stragglers must find a domain)", cov)
	}
	// Every client belongs to exactly one domain; domains partition peers.
	seen := make(map[p2p.NodeID]p2p.NodeID)
	total := 0
	for _, sp := range sps {
		for _, m := range sys.DomainMembers(sp) {
			if prev, dup := seen[m]; dup {
				t.Errorf("peer %d in domains %d and %d", m, prev, sp)
			}
			seen[m] = sp
			total++
		}
	}
	if total != 300 {
		t.Errorf("domains cover %d peers, want 300", total)
	}
	// Construction exchanged sumpeer and localsum messages.
	c := sys.Transport().Counter()
	if c.Get(MsgSumpeer) == 0 || c.Get(MsgLocalsum) == 0 {
		t.Errorf("construction counters: %s", c)
	}
}

func TestConstructRequiresSPs(t *testing.T) {
	sys, _ := newTestSystem(t, 20, 2, DefaultConfig())
	if err := sys.Construct(); err == nil {
		t.Error("construction without SPs accepted")
	}
}

func TestClosestSPAdoption(t *testing.T) {
	// Line 0-1-2-3-4; SPs at 0 and 4. Node 1 must join 0, node 3 must
	// join 4 (closer), regardless of broadcast arrival order.
	g := topology.NewGraph(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1, 0.01)
	}
	e := sim.New()
	net := p2p.NewNetwork(e, g, 3)
	sys, err := NewSystem(net, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.AssignSummaryPeers([]p2p.NodeID{0, 4})
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	if sp := sys.DomainOf(1); sp != 0 {
		t.Errorf("peer 1 joined %d, want 0", sp)
	}
	if sp := sys.DomainOf(3); sp != 4 {
		t.Errorf("peer 3 joined %d, want 4", sp)
	}
	// Node 2 is at distance 2 from both; it must be in exactly one domain.
	if sp := sys.DomainOf(2); sp != 0 && sp != 4 {
		t.Errorf("peer 2 joined %d", sp)
	}
}

// TestHopsToMatchesBallLookup pins hopsTo to the value it had when it
// read one entry out of a radius-6 BFS ball (absent = 7), for every pair
// of the determinism fixtures — the seed-99 Barabási–Albert overlay and
// the disjoint stars of the equivalence suites — and of a path long enough
// that distances of exactly 6 and beyond occur. Every report hash rests on
// these values.
func TestHopsToMatchesBallLookup(t *testing.T) {
	ba, err := topology.BarabasiAlbert(400, 2, nil, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	stars, _ := topology.DisjointStars(equivClusters, equivSize, 0.05)
	path := topology.NewGraph(10)
	for i := 0; i+1 < path.Len(); i++ {
		path.AddEdge(i, i+1, 0.01)
	}
	for name, g := range map[string]*topology.Graph{"ba": ba, "stars": stars, "path": path} {
		sys, err := NewSystem(p2p.NewNetwork(sim.New(), g, 99), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < g.Len(); a++ {
			ball := g.BFSWithin(a, 6)
			for b := 0; b < g.Len(); b++ {
				want, ok := ball[b]
				if !ok {
					want = 7
				}
				if got := sys.hopsTo(p2p.NodeID(a), p2p.NodeID(b)); got != want {
					t.Fatalf("%s: hopsTo(%d,%d) = %d, want %d", name, a, b, got, want)
				}
			}
		}
	}
}

func TestPushAndReconciliationThreshold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha = 0.5
	sys, e := newTestSystem(t, 60, 4, cfg)
	sys.ElectSummaryPeers(1)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	sp := sys.SummaryPeers()[0]
	cl := sys.Peer(sp).CooperationList()
	partners := cl.Partners()
	if len(partners) < 10 {
		t.Fatalf("domain too small: %d", len(partners))
	}
	// Push staleness just under the threshold: no reconciliation.
	under := int(cfg.Alpha*float64(len(partners))) - 1
	for i := 0; i < under; i++ {
		sys.MarkModified(partners[i])
	}
	e.Run()
	if got := sys.Stats().Reconciliations; got != 0 {
		t.Fatalf("reconciliation fired below threshold: %d", got)
	}
	if cl.StaleFraction() == 0 {
		t.Fatal("pushes did not mark staleness")
	}
	// Cross the threshold.
	for i := under; i < len(partners); i++ {
		sys.MarkModified(partners[i])
		e.Run()
		if sys.Stats().Reconciliations > 0 {
			break
		}
	}
	if sys.Stats().Reconciliations == 0 {
		t.Fatal("reconciliation never fired above threshold")
	}
	if cl.StaleFraction() != 0 {
		t.Errorf("freshness not reset after reconciliation: %g", cl.StaleFraction())
	}
	// Ring traffic: |partners|+1 reconcile messages for a full ring.
	if got := sys.Transport().Counter().Get(MsgReconcile); got == 0 {
		t.Error("no reconcile messages counted")
	}
}

func TestReconciliationRingObserver(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha = 0.2
	sys, e := newTestSystem(t, 50, 5, cfg)
	sys.ElectSummaryPeers(1)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	sp := sys.SummaryPeers()[0]
	var observed []p2p.NodeID
	sys.OnReconcile = func(spID p2p.NodeID, merged []p2p.NodeID) {
		if spID != sp {
			t.Errorf("reconciliation at %d, want %d", spID, sp)
		}
		observed = merged
	}
	partners := sys.Peer(sp).CooperationList().Partners()
	for _, p := range partners {
		sys.MarkModified(p)
	}
	e.Run()
	if len(observed) == 0 {
		t.Fatal("observer saw no merge")
	}
	// Every online partner participated.
	if len(observed) != len(partners) {
		t.Errorf("merged %d of %d partners", len(observed), len(partners))
	}
}

func TestGracefulLeaveMarksStale(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha = 0.9 // avoid reconciliation interference
	sys, e := newTestSystem(t, 40, 6, cfg)
	sys.ElectSummaryPeers(1)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	sp := sys.SummaryPeers()[0]
	cl := sys.Peer(sp).CooperationList()
	victim := cl.Partners()[0]
	sys.Leave(victim, true)
	e.Run()
	if v, ok := cl.Get(victim); !ok || v != Stale {
		t.Errorf("departed peer freshness = %v (present=%v), want stale", v, ok)
	}
	if sys.Stats().GracefulLeaves != 1 {
		t.Errorf("GracefulLeaves = %d", sys.Stats().GracefulLeaves)
	}
}

func TestSilentFailureDetectedOnPush(t *testing.T) {
	cfg := DefaultConfig()
	sys, e := newTestSystem(t, 80, 7, cfg)
	sys.ElectSummaryPeers(2)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	// Fail a summary peer silently; a partner pushing to it must detect
	// the failure and find a new domain.
	sp := sys.SummaryPeers()[0]
	members := sys.DomainMembers(sp)
	if len(members) < 2 {
		t.Skip("domain too small")
	}
	partner := members[1]
	sys.Leave(sp, false)
	sys.MarkModified(partner)
	e.Run()
	if got := sys.DomainOf(partner); got == sp || got < 0 {
		t.Errorf("partner stuck with failed SP: domain=%d", got)
	}
	if sys.Stats().Failures != 1 {
		t.Errorf("Failures = %d", sys.Stats().Failures)
	}
}

func TestSummaryPeerRelease(t *testing.T) {
	sys, e := newTestSystem(t, 80, 8, DefaultConfig())
	sys.ElectSummaryPeers(2)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	sp0, sp1 := sys.SummaryPeers()[0], sys.SummaryPeers()[1]
	members := sys.DomainMembers(sp0)
	sys.Leave(sp0, true)
	e.Run()
	// Every former member (except the departed SP) must end up in sp1's
	// domain or at least out of sp0's.
	for _, m := range members {
		if m == sp0 {
			continue
		}
		if got := sys.DomainOf(m); got == sp0 {
			t.Errorf("peer %d still in released domain", m)
		} else if got >= 0 && got != sp1 {
			t.Errorf("peer %d in unexpected domain %d", m, got)
		}
	}
	if sys.Stats().SPDepartures != 1 {
		t.Errorf("SPDepartures = %d", sys.Stats().SPDepartures)
	}
	if sys.Transport().Counter().Get(MsgRelease) == 0 {
		t.Error("no release messages")
	}
}

func TestJoinViaNeighbor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha = 0.99
	sys, e := newTestSystem(t, 60, 9, cfg)
	sys.ElectSummaryPeers(1)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	sp := sys.SummaryPeers()[0]
	cl := sys.Peer(sp).CooperationList()
	victim := cl.Partners()[2]
	sys.Leave(victim, true)
	e.Run()
	sys.Join(victim)
	e.Run()
	if got := sys.DomainOf(victim); got != sp {
		t.Errorf("rejoined peer in domain %d, want %d", got, sp)
	}
	// §4.3: a joining peer's descriptions need pulling: freshness 1.
	if v, ok := cl.Get(victim); !ok || v != Stale {
		t.Errorf("rejoined freshness = %v (present=%v), want stale", v, ok)
	}
	if sys.Stats().Joins != 1 {
		t.Errorf("Joins = %d", sys.Stats().Joins)
	}
	// Double join is a no-op.
	sys.Join(victim)
	if sys.Stats().Joins != 1 {
		t.Error("double join counted")
	}
}

func TestReconciliationSkipsOfflinePartners(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha = 0.3
	sys, e := newTestSystem(t, 50, 10, cfg)
	sys.ElectSummaryPeers(1)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	sp := sys.SummaryPeers()[0]
	cl := sys.Peer(sp).CooperationList()
	partners := cl.Partners()
	// Fail a couple of partners silently, then push the rest stale.
	sys.Leave(partners[0], false)
	sys.Leave(partners[1], false)
	for _, p := range partners[2:] {
		sys.MarkModified(p)
	}
	e.Run()
	if sys.Stats().Reconciliations == 0 {
		t.Fatal("no reconciliation")
	}
	// The failed partners are gone from the CL (descriptions omitted).
	if cl.Has(partners[0]) || cl.Has(partners[1]) {
		t.Error("failed partners still in CL after reconciliation")
	}
}

func TestDataLevelConstructionAndReconciliation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha = 0.3
	cfg.DataLevel = true
	cfg.BK = bk.Medical()
	sys, e := newTestSystem(t, 30, 11, cfg)

	// Give every peer a synthetic local summary.
	mapper, err := cells.NewMapper(cfg.BK, data.PatientSchema())
	if err != nil {
		t.Fatal(err)
	}
	gen := data.NewPatientGenerator(99, nil)
	var want float64
	for i := 0; i < 30; i++ {
		st := cells.NewStore(mapper)
		st.AddRelation(gen.Generate("db", 40))
		tr := saintetiq.New(cfg.BK, cfg.TreeCfg)
		if err := tr.IncorporateStore(st, saintetiq.PeerID(i)); err != nil {
			t.Fatal(err)
		}
		sys.SetLocalTree(p2p.NodeID(i), tr)
		want += tr.Root().Count()
	}
	sys.ElectSummaryPeers(1)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	sp := sys.SummaryPeers()[0]
	gs := sys.Peer(sp).GlobalSummary()
	if gs == nil || gs.Empty() {
		t.Fatal("global summary empty after construction")
	}
	// GS covers all partners' data (SP's own data merges at reconciliation).
	spOwn := sys.Peer(sp).LocalTree().Root().Count()
	got := gs.Root().Count()
	if got < want-spOwn-1e-6 || got > want+1e-6 {
		t.Errorf("GS weight = %g, want within [%g, %g]", got, want-spOwn, want)
	}
	// Peer extents present.
	if gs.Root().PeerCount() < 25 {
		t.Errorf("GS peer extent = %d, want ~29", gs.Root().PeerCount())
	}
	if err := gs.Validate(); err != nil {
		t.Fatalf("GS invalid: %v", err)
	}

	// Force a reconciliation; afterwards GS includes the SP's own data.
	cl := sys.Peer(sp).CooperationList()
	for _, p := range cl.Partners() {
		sys.MarkModified(p)
	}
	e.Run()
	if sys.Stats().Reconciliations == 0 {
		t.Fatal("no reconciliation")
	}
	gs2 := sys.Peer(sp).GlobalSummary()
	if gs2 == gs {
		t.Error("reconciliation did not produce a new version")
	}
	if w := gs2.Root().Count(); w < want-1e-6 || w > want+1e-6 {
		t.Errorf("reconciled GS weight = %g, want %g", w, want)
	}
	if err := gs2.Validate(); err != nil {
		t.Fatalf("reconciled GS invalid: %v", err)
	}
}

func TestMergeOnJoinAblation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha = 0.99
	cfg.MergeOnJoin = true
	sys, e := newTestSystem(t, 40, 12, cfg)
	sys.ElectSummaryPeers(1)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	sp := sys.SummaryPeers()[0]
	cl := sys.Peer(sp).CooperationList()
	victim := cl.Partners()[0]
	sys.Leave(victim, true)
	e.Run()
	sys.Join(victim)
	e.Run()
	if v, ok := cl.Get(victim); !ok || v != Fresh {
		t.Errorf("merge-on-join freshness = %v (present=%v), want fresh", v, ok)
	}
}

func TestTwoBitKeepUnavailable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = TwoBit
	cfg.KeepUnavailable = true
	cfg.Alpha = 0.1
	sys, e := newTestSystem(t, 40, 13, cfg)
	sys.ElectSummaryPeers(1)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	sp := sys.SummaryPeers()[0]
	cl := sys.Peer(sp).CooperationList()
	victim := cl.Partners()[0]
	before := sys.Stats().Reconciliations
	sys.Leave(victim, true)
	e.Run()
	if v, _ := cl.Get(victim); v != Unavailable {
		t.Errorf("keep-unavailable freshness = %v, want unavailable", v)
	}
	// First alternative: departures do not accelerate reconciliation.
	if sys.Stats().Reconciliations != before {
		t.Error("departure triggered reconciliation despite KeepUnavailable")
	}
}

func TestRolesAndAccessors(t *testing.T) {
	sys, _ := newTestSystem(t, 30, 14, DefaultConfig())
	sys.ElectSummaryPeers(2)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	sp := sys.SummaryPeers()[0]
	p := sys.Peer(sp)
	if p.Role() != RoleSummaryPeer || p.SummaryPeer() != sp || !p.IsPartner() {
		t.Error("SP accessors wrong")
	}
	if p.ID() != sp {
		t.Error("ID wrong")
	}
	if sys.DomainMembers(p2p.NodeID(1)) != nil && sys.Peer(1).Role() == RoleClient {
		t.Error("DomainMembers on client should be nil")
	}
	if sys.Config().Alpha != DefaultConfig().Alpha {
		t.Error("Config accessor wrong")
	}
}

// Property: after construction on any BA graph, every online peer is
// covered and domains are disjoint.
func TestQuickConstructionPartition(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw%150) + 20
		k := int(kRaw%4) + 1
		g, err := topology.BarabasiAlbert(n, 2, nil, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		net := p2p.NewNetwork(sim.New(), g, seed)
		sys, err := NewSystem(net, DefaultConfig())
		if err != nil {
			return false
		}
		sys.ElectSummaryPeers(k)
		if err := sys.Construct(); err != nil {
			return false
		}
		if sys.Coverage() != 1 {
			return false
		}
		seen := make(map[p2p.NodeID]bool)
		total := 0
		for _, sp := range sys.SummaryPeers() {
			for _, m := range sys.DomainMembers(sp) {
				if seen[m] {
					return false
				}
				seen[m] = true
				total++
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: the stale fraction never exceeds much beyond α after the engine
// quiesces (reconciliation pulls it back to zero whenever it crosses α).
func TestQuickStaleFractionBounded(t *testing.T) {
	f := func(seed int64, aRaw uint8) bool {
		alpha := 0.1 + float64(aRaw%8)/10 // 0.1 .. 0.8
		cfg := DefaultConfig()
		cfg.Alpha = alpha
		g, err := topology.BarabasiAlbert(60, 2, nil, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		e := sim.New()
		net := p2p.NewNetwork(e, g, seed)
		sys, err := NewSystem(net, cfg)
		if err != nil {
			return false
		}
		sys.ElectSummaryPeers(1)
		if err := sys.Construct(); err != nil {
			return false
		}
		sp := sys.SummaryPeers()[0]
		cl := sys.Peer(sp).CooperationList()
		rng := rand.New(rand.NewSource(seed + 1))
		partners := cl.Partners()
		for i := 0; i < 200; i++ {
			sys.MarkModified(partners[rng.Intn(len(partners))])
			e.Run()
			if cl.StaleFraction() >= alpha+0.05 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestDataLevelByteAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataLevel = true
	cfg.BK = bk.Medical()
	sys, _ := newTestSystem(t, 12, 55, cfg)
	mapper, err := cells.NewMapper(cfg.BK, data.PatientSchema())
	if err != nil {
		t.Fatal(err)
	}
	gen := data.NewPatientGenerator(56, nil)
	for i := 0; i < 12; i++ {
		st := cells.NewStore(mapper)
		st.AddRelation(gen.Generate("db", 25))
		tr := saintetiq.New(cfg.BK, cfg.TreeCfg)
		if err := tr.IncorporateStore(st, saintetiq.PeerID(i)); err != nil {
			t.Fatal(err)
		}
		sys.SetLocalTree(p2p.NodeID(i), tr)
	}
	sys.ElectSummaryPeers(1)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	// localsum messages carry whole summaries: their byte volume must be
	// far above the bare-message floor.
	bytes := sys.Transport().Bytes()
	count := sys.Transport().Counter()
	perMsg := float64(bytes.Get(MsgLocalsum)) / float64(count.Get(MsgLocalsum))
	if perMsg < float64(SummaryNodeBytes) {
		t.Errorf("localsum averages %.0f bytes, below one summary node (%d)", perMsg, SummaryNodeBytes)
	}
	// Protocol-only messages are charged their real encoded frame length,
	// which for the three-integer sumpeer payload sits well below the old
	// BaseMessageBytes estimate.
	if c := count.Get(MsgSumpeer); c > 0 {
		got := bytes.Get(MsgSumpeer)
		if got < 10*c || got > c*int64(p2p.BaseMessageBytes) {
			t.Errorf("sumpeer bytes = %d over %d messages, want compact frames (10B..%dB each)",
				got, c, p2p.BaseMessageBytes)
		}
	}
}
