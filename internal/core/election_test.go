package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"p2psum/internal/liveness"
	"p2psum/internal/p2p"
	"p2psum/internal/sim"
	"p2psum/internal/topology"
)

// The proactive re-election suite (Config.ProactiveElection): the
// deterministic successor function, the full propose/promote/announce
// exchange under silent and graceful summary-peer death on both
// transports, identical outcomes across dispatcher counts, and the
// rejection of forged MsgElect traffic.

func TestElectCodecRoundTrip(t *testing.T) {
	for _, p := range []ElectPayload{
		{Dead: 0, Successor: 1},
		{Dead: 701, Successor: 12345},
		{Dead: -1, Successor: -1},
	} {
		if got := roundTrip(t, MsgElect, p); got != any(p) {
			t.Fatalf("round-trip %+v -> %+v", p, got)
		}
	}
}

func TestSuccessorDeterministic(t *testing.T) {
	// Hand-built domain around SP 0: member 3 has the top degree, members
	// 1 and 2 tie one below it, 4 and 5 trail.
	g := topology.NewGraph(6)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {3, 1}, {3, 2}, {1, 2}, {3, 5}} {
		if err := g.AddEdge(e[0], e[1], 0.01); err != nil {
			t.Fatal(err)
		}
	}
	net := p2p.NewNetwork(sim.New(), g, 1)
	sys, err := NewSystem(net, DefaultConfig()) // baseline config: no auto-election interferes
	if err != nil {
		t.Fatal(err)
	}
	sys.AssignSummaryPeers([]p2p.NodeID{0})
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	net.SetOnline(0, false)
	if got := sys.Successor(0); got != 3 {
		t.Fatalf("Successor = %d, want 3 (top degree)", got)
	}
	net.SetOnline(3, false)
	if got := sys.Successor(0); got != 1 {
		t.Fatalf("Successor = %d, want 1 (degree tie with 2 breaks to the lower id)", got)
	}
	for _, id := range []p2p.NodeID{1, 2, 4, 5} {
		net.SetOnline(id, false)
	}
	if got := sys.Successor(0); got != -1 {
		t.Fatalf("Successor = %d, want -1 (no survivor)", got)
	}
}

// runElectionScenario drives the same two summary-peer deaths — one
// silent (suspect -> confirm -> election), one graceful (release ->
// election) — over 3 star domains on the discrete-event Network.
func runElectionScenario(t *testing.T) *System {
	t.Helper()
	const clusters, size = 3, 8
	g, hubs := topology.DisjointStars(clusters, size, 0.05)
	net := p2p.NewNetwork(sim.New(), g, 21)
	cfg := DefaultConfig()
	cfg.ProactiveElection = true
	sys, err := NewSystem(net, cfg)
	if err != nil {
		t.Fatal(err)
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

	// Hub 0 dies silently: the confirmation timer fires inside Settle and
	// nudges every surviving member into the election.
	sys.Leave(p2p.NodeID(hubs[0]), false)
	net.Settle()
	// Hub 1 departs gracefully: the release notices trigger it directly.
	sys.Leave(p2p.NodeID(hubs[1]), true)
	net.Settle()
	return sys
}

func TestProactiveElectionNetwork(t *testing.T) {
	const size = 8
	sys := runElectionScenario(t)
	st := sys.Stats()
	if st.Elections != 2 {
		t.Fatalf("Elections = %d, want 2 (one per dead hub)", st.Elections)
	}
	// The deterministic successor of a dead star hub is its lowest-id
	// spoke (all spokes tie at degree 1).
	for _, hub := range []p2p.NodeID{0, size} {
		succ := hub + 1
		if r := sys.Peer(succ).Role(); r != RoleSummaryPeer {
			t.Fatalf("successor %d role = %v, want summary peer", succ, r)
		}
		if !containsID(sys.SummaryPeers(), succ) {
			t.Fatalf("successor %d missing from SummaryPeers %v", succ, sys.SummaryPeers())
		}
		for m := hub + 2; m < hub+size; m++ {
			if got := sys.DomainOf(m); got != succ {
				t.Fatalf("member %d -> %d, want successor %d", m, got, succ)
			}
		}
	}
	if cov := sys.Coverage(); cov != 1 {
		t.Fatalf("coverage after re-elections = %v, want 1", cov)
	}
	// Bounded staleness: the re-adoptions flagged every member stale and
	// the new summary peers reconciled their domains.
	if st.Reconciliations < 2 {
		t.Fatalf("Reconciliations = %d, want >= 2 (one per repaired domain)", st.Reconciliations)
	}
	if st.FindWalks != 0 {
		t.Fatalf("FindWalks = %d, want 0 (election replaces the walk)", st.FindWalks)
	}
}

// TestElectionDeterminismAcrossDispatchers kills a summary peer on the
// concurrent channel transport at dispatcher counts 1, 2 and 4: the
// elected successor and the repaired domain layout must be identical
// (wall-clock interleavings may reorder messages, never the outcome).
func TestElectionDeterminismAcrossDispatchers(t *testing.T) {
	type outcome struct {
		elections int
		mapping   string
	}
	run := func(dispatchers int) outcome {
		const clusters, size = 3, 8
		g, hubs := topology.DisjointStars(clusters, size, 0.05)
		ct := p2p.NewChannelTransport(g, 21, p2p.ChannelConfig{Dispatchers: dispatchers})
		t.Cleanup(ct.Close)
		cfg := DefaultConfig()
		cfg.ProactiveElection = true
		sys, err := NewSystem(ct, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]p2p.NodeID, len(hubs))
		for i, h := range hubs {
			ids[i] = p2p.NodeID(h)
		}
		sys.AssignSummaryPeers(ids)
		if err := sys.Construct(); err != nil {
			t.Fatal(err)
		}
		ct.Settle()
		sys.Leave(p2p.NodeID(hubs[0]), true)
		ct.Settle()
		var b strings.Builder
		for i := 0; i < ct.Len(); i++ {
			fmt.Fprintf(&b, "%d->%d;", i, sys.DomainOf(p2p.NodeID(i)))
		}
		fmt.Fprintf(&b, "sps=%v", sys.SummaryPeers())
		return outcome{elections: sys.Stats().Elections, mapping: b.String()}
	}
	base := run(1)
	if base.elections != 1 {
		t.Fatalf("Elections = %d, want exactly 1", base.elections)
	}
	for _, d := range []int{2, 4} {
		if got := run(d); got != base {
			t.Fatalf("dispatchers=%d diverged:\nwant %+v\ngot  %+v", d, base, got)
		}
	}
}

// TestProactiveElectionSilentFailureChannel runs the real-time path: a
// summary peer dies silently on the channel transport, the suspicion
// confirms on a wall-clock timer, and the surviving partners elect —
// exactly one promotion, every partner re-attached, reconciliation
// repairing the new domain.
func TestProactiveElectionSilentFailureChannel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProactiveElection = true
	cfg.GossipInterval = 25
	cfg.GossipPiggyback = true
	cfg.SuspectTimeout = 10
	sys, ct := newChannelSystem(t, 150, 19, cfg)
	sys.ElectSummaryPeers(3)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	sp := sys.SummaryPeers()[0]
	// Read membership from the view claims (DomainMembers), not the CL:
	// on the real-time transport a construction-phase MsgDrop can be
	// delivered after the MsgLocalsum that followed it, leaving a stale
	// CL entry for a peer that migrated to a closer summary peer — the
	// election works off view claims, and so must the expected set.
	members := sys.DomainMembers(sp)
	partners := members[1:]
	if len(partners) < 2 {
		t.Fatalf("domain of %d too small: %v", sp, partners)
	}

	sys.Leave(sp, false)
	waitForState(t, ct.Liveness(), sp, liveness.Dead, 5*time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for sys.Stats().Elections == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no election after the confirmed summary-peer death")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ct.Settle()

	if got := sys.Stats().Elections; got != 1 {
		t.Fatalf("Elections = %d, want exactly 1", got)
	}
	var succ p2p.NodeID = -1
	for _, id := range partners {
		if sys.Peer(id).Role() == RoleSummaryPeer {
			if succ >= 0 {
				t.Fatalf("two partners promoted: %d and %d", succ, id)
			}
			succ = id
		}
	}
	if succ < 0 {
		t.Fatal("no partner promoted")
	}
	for _, id := range partners {
		if id == succ || !ct.Online(id) {
			continue
		}
		if got := sys.DomainOf(id); got != succ {
			t.Fatalf("partner %d -> %d, want successor %d", id, got, succ)
		}
	}
	// Bounded staleness: the re-adoptions must have reconciled the new
	// domain (protocol level: the ring completes with counters only).
	reconDeadline := time.Now().Add(10 * time.Second)
	for sys.Stats().Reconciliations == 0 {
		if time.Now().After(reconDeadline) {
			t.Fatal("new domain never reconciled after the election")
		}
		ct.Settle()
		time.Sleep(2 * time.Millisecond)
	}
}

// TestForgedElectIgnored pins the validation of MsgElect: forged
// proposals and announcements — about a live summary peer, or from a
// node that never promoted — must not mint summary peers or move
// members.
func TestForgedElectIgnored(t *testing.T) {
	g, hubs := topology.DisjointStars(1, 6, 0.02)
	net := p2p.NewNetwork(sim.New(), g, 5)
	cfg := DefaultConfig()
	cfg.ProactiveElection = true
	sys, err := NewSystem(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hub := p2p.NodeID(hubs[0])
	sys.AssignSummaryPeers([]p2p.NodeID{hub})
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}

	// Forged proposal: node 4 nominates node 2 although the hub is alive.
	net.SendNew(MsgElect, 4, 2, 0, ElectPayload{Dead: hub, Successor: 2})
	net.Settle()
	if r := sys.Peer(2).Role(); r != RoleClient {
		t.Fatalf("forged proposal minted a summary peer (role %v)", r)
	}
	// Forged announcement: node 3 claims it replaced the live hub.
	net.SendNew(MsgElect, 3, 2, 0, ElectPayload{Dead: hub, Successor: 3})
	net.Settle()
	if got := sys.DomainOf(2); got != hub {
		t.Fatalf("forged announcement hijacked member 2 -> %d", got)
	}
	// The hub really dies (flipped directly, so no election trigger
	// fires) — an announcement from a node whose view claim is not a
	// self-claim must still be refused.
	net.SetOnline(hub, false)
	net.SendNew(MsgElect, 3, 2, 0, ElectPayload{Dead: hub, Successor: 3})
	net.Settle()
	if got := sys.Peer(2).curSP(); got != hub {
		t.Fatalf("announcement from a never-promoted node moved member 2 -> %d", got)
	}
	if got := sys.Stats().Elections; got != 0 {
		t.Fatalf("Elections = %d, want 0", got)
	}
}
