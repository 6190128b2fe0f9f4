package core

import (
	"fmt"
	"math/rand"
	"testing"

	"p2psum/internal/liveness"
	"p2psum/internal/p2p"
	"p2psum/internal/sim"
)

// TestFailureInjectionLiveness hammers a domain with random concurrent
// failures, rejoins and modification pushes and asserts the liveness
// properties the paper's protocols must keep: the engine always quiesces
// (no deadlock and no livelock), the cooperation list tracks reality after
// reconciliations, and the stale fraction is pulled back under α plus
// churn headroom.
func TestFailureInjectionLiveness(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha = 0.3
	sys, e := newTestSystem(t, 120, 99, cfg)
	sys.ElectSummaryPeers(2)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))

	clients := make([]p2p.NodeID, 0, 120)
	isSP := make(map[p2p.NodeID]bool)
	for _, sp := range sys.SummaryPeers() {
		isSP[sp] = true
	}
	for i := 0; i < 120; i++ {
		if !isSP[p2p.NodeID(i)] {
			clients = append(clients, p2p.NodeID(i))
		}
	}

	for round := 0; round < 400; round++ {
		id := clients[rng.Intn(len(clients))]
		switch rng.Intn(4) {
		case 0:
			sys.Leave(id, rng.Intn(2) == 0) // half graceful, half silent
		case 1:
			sys.Join(id)
		default:
			sys.MarkModified(id)
		}
		// The engine must always drain; a stuck reconciliation ring or a
		// find-walk loop would hang here.
		e.Run()
	}

	// Bring everyone back and force a final reconciliation.
	for _, id := range clients {
		sys.Join(id)
	}
	e.Run()
	for _, id := range clients {
		sys.MarkModified(id)
	}
	e.Run()

	if sys.Stats().Reconciliations == 0 {
		t.Fatal("no reconciliation under churn")
	}
	for _, sp := range sys.SummaryPeers() {
		r := reportOf(sys, sp)
		if r.Reconciling {
			t.Errorf("domain %d stuck reconciling", sp)
		}
		if r.StaleFraction > cfg.Alpha+0.15 {
			t.Errorf("domain %d staleness %.2f far above alpha", sp, r.StaleFraction)
		}
		// Every CL entry refers to a live or recently-departed peer; no
		// negative ids, no summary peers.
		cl := sys.Peer(sp).CooperationList()
		for _, partner := range cl.Partners() {
			if partner < 0 || int(partner) >= sys.Transport().Len() {
				t.Errorf("CL of %d contains bogus id %d", sp, partner)
			}
			if isSP[partner] {
				t.Errorf("CL of %d contains a summary peer", sp)
			}
		}
	}
	// All online clients are covered again.
	if cov := sys.Coverage(); cov < 0.95 {
		t.Errorf("coverage after recovery = %g", cov)
	}
}

// reportOf is one domain's report, its online members counted by
// DomainMembers rather than ReportAll's single pass over the view.
func reportOf(s *System, sp p2p.NodeID) DomainReport {
	return s.report(sp, len(s.DomainMembers(sp)))
}

// TestReportAndDescribe checks the monitoring surface.
func TestReportAndDescribe(t *testing.T) {
	sys, e := newTestSystem(t, 50, 100, DefaultConfig())
	sys.ElectSummaryPeers(2)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	reports := sys.ReportAll()
	if len(reports) != 2 {
		t.Fatalf("ReportAll = %d entries", len(reports))
	}
	for _, r := range reports {
		if r.OnlineMembers == 0 || r.Partners == 0 {
			t.Errorf("empty report: %s", r)
		}
		if r.String() == "" {
			t.Error("report renders empty")
		}
	}
	if sys.Describe() == "" {
		t.Error("Describe empty")
	}
	// ReportAll counts every domain's members in one pass over the view;
	// after graceful and silent departures it must still agree with the
	// per-domain report built on DomainMembers.
	for id := p2p.NodeID(10); id < 20; id++ {
		if sys.Peer(id).Role() != RoleSummaryPeer {
			sys.Leave(id, id%2 == 0)
		}
	}
	e.Run()
	for _, r := range sys.ReportAll() {
		one := reportOf(sys, r.SummaryPeer)
		if r != one || r.OnlineMembers != len(sys.DomainMembers(r.SummaryPeer)) {
			t.Errorf("ReportAll %s, report %s, %d members", r, one, len(sys.DomainMembers(r.SummaryPeer)))
		}
	}
}

// TestConfirmedDeathNotifiesSummaryPeersOnly pins the cost of a §4.3
// silent failure: once the suspicion confirms, every summary peer's
// cooperation list has dropped the dead client, and the confirmation
// itself costs the timer plus one eviction event per summary peer — not
// one event per peer of the overlay. Both election modes take the same
// path for a client (only a summary peer's death starts an election).
func TestConfirmedDeathNotifiesSummaryPeersOnly(t *testing.T) {
	for _, proactive := range []bool{false, true} {
		t.Run(fmt.Sprintf("proactive=%v", proactive), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.ProactiveElection = proactive
			cfg.SuspectTimeout = 10
			sys, e := newTestSystem(t, 320, 5, cfg)
			sps := sys.ElectSummaryPeers(8)
			if err := sys.Construct(); err != nil {
				t.Fatal(err)
			}
			e.Run()
			victim := p2p.NodeID(-1)
			for id := 0; id < sys.net.Len() && victim < 0; id++ {
				p := sys.Peer(p2p.NodeID(id))
				if sp := p.SummaryPeer(); p.Role() == RoleClient && sp >= 0 && sys.Peer(sp).CooperationList().Has(p.ID()) {
					victim = p.ID()
				}
			}
			if victim < 0 {
				t.Fatal("no client sits in a cooperation list after Construct")
			}
			before, t0 := e.Executed(), e.Now()
			sys.Leave(victim, false)
			e.Run()
			if e.Now() < t0+sim.Time(cfg.SuspectTimeout) {
				t.Fatalf("run stopped at %v, before the suspicion could confirm", e.Now())
			}
			if got := sys.net.Liveness().StateOf(int(victim)); got != liveness.Dead {
				t.Fatalf("victim state %s after the timeout, want dead", got)
			}
			for _, sp := range sys.SummaryPeers() {
				if sys.Peer(sp).CooperationList().Has(victim) {
					t.Errorf("summary peer %d still lists dead client %d", sp, victim)
				}
			}
			if cost, max := e.Executed()-before, uint64(len(sps)+2); cost > max {
				t.Errorf("confirming one death ran %d events, want <= %d (summary peers + timer)", cost, max)
			}
		})
	}
}

// TestConfirmedSummaryPeerDeathElectsOneSuccessor: with the eviction
// fan-out narrowed to the summary-peer roster, a silently failed summary
// peer still confirms into exactly one election, and every surviving
// member of its domain adopts the one successor.
func TestConfirmedSummaryPeerDeathElectsOneSuccessor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProactiveElection = true
	cfg.SuspectTimeout = 10
	sys, e := newTestSystem(t, 320, 5, cfg)
	sps := sys.ElectSummaryPeers(8)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	e.Run()
	dead := sps[0]
	var members []p2p.NodeID
	for id := 0; id < sys.net.Len(); id++ {
		if nid := p2p.NodeID(id); nid != dead && sys.DomainOf(nid) == dead {
			members = append(members, nid)
		}
	}
	if len(members) == 0 {
		t.Fatal("the failing summary peer has an empty domain")
	}
	sys.Leave(dead, false)
	e.Run()
	if got := sys.Stats().Elections; got != 1 {
		t.Fatalf("Elections = %d, want 1", got)
	}
	after := sys.SummaryPeers()
	if len(after) != len(sps)+1 {
		t.Fatalf("summary peers %v after the election, want the %d originals plus one", after, len(sps))
	}
	var successor p2p.NodeID = -1
	for _, sp := range after {
		if !containsID(sps, sp) {
			successor = sp
		}
	}
	if successor < 0 || sys.Peer(successor).Role() != RoleSummaryPeer {
		t.Fatalf("no promoted successor among %v", after)
	}
	for _, m := range members {
		if sys.net.Online(m) && sys.DomainOf(m) != successor {
			t.Errorf("member %d of the dead domain adopted %d, want successor %d", m, sys.DomainOf(m), successor)
		}
	}
}

// TestCoverageCountsStrandedClients: right after a summary peer fails
// silently, before any repair runs, its clients still claim it in the
// view but belong to no live domain, so Coverage must read below 1 — a
// reconvergence check built on it would otherwise pass at the kill.
func TestCoverageCountsStrandedClients(t *testing.T) {
	sys, e := newTestSystem(t, 200, 11, DefaultConfig())
	sps := sys.ElectSummaryPeers(4)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if cov := sys.Coverage(); cov != 1 {
		t.Fatalf("coverage after construction = %v, want 1", cov)
	}
	dead := sps[0]
	stranded := len(sys.DomainMembers(dead)) - 1
	if stranded == 0 {
		t.Fatal("the failing summary peer has an empty domain")
	}
	sys.Leave(dead, false)
	online := sys.Transport().Liveness().OnlineCount()
	want := float64(online-stranded) / float64(online)
	if cov := sys.Coverage(); cov != want {
		t.Fatalf("coverage after a silent summary-peer failure = %v, want %v (%d of %d online clients stranded)",
			cov, want, stranded, online)
	}
}
