package core

import (
	"fmt"
	"testing"

	"p2psum/internal/liveness"
	"p2psum/internal/p2p"
	"p2psum/internal/sim"
	"p2psum/internal/topology"
)

// The liveness-layer suite: the §4.3 peer-dynamicity transitions as seen by
// the membership view — silent failure -> suspect -> dead -> rejoin ->
// alive — exercised on the event engine under seeded packet loss, plus the
// guard rails of the gossip configuration.

// TestLivenessTransitionsUnderLoss round-trips the §4.3 state machine on
// the event engine with 20% packet loss: a silent Leave files a suspicion
// immediately, the confirmation timer promotes it to dead, and a Join
// supersedes the death with a fresh incarnation — repeatedly, while gossip
// (explicit rounds and piggybacked tails) keeps flowing over the lossy
// links.
func TestLivenessTransitionsUnderLoss(t *testing.T) {
	g, hubs := topology.DisjointStars(1, 10, 0.02)
	net := p2p.NewNetwork(sim.New(), g, 7)
	net.SetLossRate(0.2)
	cfg := DefaultConfig()
	cfg.GossipPiggyback = true
	cfg.SuspectTimeout = 10
	sys, err := NewSystem(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.AssignSummaryPeers([]p2p.NodeID{p2p.NodeID(hubs[0])})
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	view := net.Liveness()

	spoke := p2p.NodeID(3)
	for round := 0; round < 3; round++ {
		inc := view.EntryOf(int(spoke)).Inc
		sys.Leave(spoke, false)
		if got := view.StateOf(int(spoke)); got != liveness.Suspect {
			t.Fatalf("round %d: state after silent leave = %s, want suspect", round, got)
		}
		if net.Online(spoke) {
			t.Fatalf("round %d: suspect node still counts online", round)
		}
		sys.GossipRound()
		net.Settle()
		if got := view.StateOf(int(spoke)); got != liveness.Dead {
			t.Fatalf("round %d: node %d in %s after the confirmation timer, want dead", round, spoke, got)
		}
		if got := view.EntryOf(int(spoke)).Inc; got != inc {
			t.Fatalf("round %d: suspicion/confirmation changed the incarnation (%d -> %d)", round, inc, got)
		}
		sys.Join(spoke)
		if got := view.StateOf(int(spoke)); got != liveness.Alive {
			t.Fatalf("round %d: state after join = %s, want alive", round, got)
		}
		if got := view.EntryOf(int(spoke)).Inc; got <= inc {
			t.Fatalf("round %d: rejoin did not advance the incarnation (%d -> %d)", round, inc, got)
		}
		sys.GossipRound()
		net.Settle()
	}

	// A join racing the confirmation timer must win: the higher incarnation
	// makes the stale Confirm a no-op.
	sys.Leave(spoke, false)
	sys.Join(spoke)
	net.Settle() // runs the stale confirmation timer
	if !view.Online(int(spoke)) {
		t.Fatalf("stale confirmation killed a rejoined node: %s", view.StateOf(int(spoke)))
	}

	// The domain still works after the churn: pushes under loss eventually
	// reconcile (pushes and ring tokens are both lossy, so hammer them until
	// the loss recovery lands one round), and coverage recovers.
	for round := 0; sys.Stats().Reconciliations == 0; round++ {
		if round == 100 {
			t.Fatal("no reconciliation in 100 rounds after the liveness churn")
		}
		for i := 1; i < 10; i++ {
			sys.MarkModified(p2p.NodeID(i))
		}
		sys.GossipRound()
		net.Settle()
	}
	if cov := sys.Coverage(); cov != 1 {
		t.Errorf("coverage after recovery = %v, want 1", cov)
	}
}

// TestGossipIntervalRejectedOnNetwork pins the guard: periodic gossip
// timers would livelock the discrete-event engine's run-to-quiescence
// Settle, so NewSystem refuses the combination and points at GossipRound.
func TestGossipIntervalRejectedOnNetwork(t *testing.T) {
	g := topology.NewGraph(4)
	for i := 1; i < 4; i++ {
		if err := g.AddEdge(0, i, 0.01); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	cfg.GossipInterval = 10
	if _, err := NewSystem(p2p.NewNetwork(sim.New(), g, 1), cfg); err == nil {
		t.Fatal("NewSystem accepted GossipInterval on the discrete-event Network")
	}
}

// TestGossipRoundConvergesViewsDeterministically drives explicit gossip
// rounds on the discrete-event engine: the shared in-memory view makes the
// merges no-ops, but the traffic itself must be deterministic — two
// identically seeded runs count identical gossip messages.
func TestGossipRoundConvergesViewsDeterministically(t *testing.T) {
	run := func() (int64, string) {
		g, hubs := topology.DisjointStars(2, 6, 0.02)
		eng := sim.New()
		net := p2p.NewNetwork(eng, g, 9)
		cfg := DefaultConfig()
		cfg.GossipPiggyback = true
		sys, err := NewSystem(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ids := []p2p.NodeID{p2p.NodeID(hubs[0]), p2p.NodeID(hubs[1])}
		sys.AssignSummaryPeers(ids)
		if err := sys.Construct(); err != nil {
			t.Fatal(err)
		}
		sys.Leave(2, false)
		sys.MarkModified(3)
		for i := 0; i < 4; i++ {
			sys.GossipRound()
			net.Settle()
		}
		return net.Counter().Get(MsgGossip), fmt.Sprint(net.Bytes().Get(MsgGossip), net.Liveness())
	}
	c1, fp1 := run()
	c2, fp2 := run()
	if c1 == 0 {
		t.Fatal("GossipRound sent no gossip")
	}
	if c1 != c2 || fp1 != fp2 {
		t.Fatalf("gossip rounds not deterministic: (%d, %s) vs (%d, %s)", c1, fp1, c2, fp2)
	}
}
