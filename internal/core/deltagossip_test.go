package core

import (
	"fmt"
	"math/rand"
	"testing"

	"p2psum/internal/liveness"
	"p2psum/internal/p2p"
	"p2psum/internal/sim"
	"p2psum/internal/topology"
)

// The delta-gossip suite: the per-link version protocol (first-contact
// full sync, ack-driven deltas, restart detection, drop regression) and
// the end-to-end equivalence of delta and full-snapshot gossip over a
// churn trace.

// deltaTestSystem builds a constructed 2-domain system on the
// discrete-event engine with piggybacking on.
func deltaTestSystem(t *testing.T) (*System, *sim.Engine) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.GossipPiggyback = true
	sys, e := newTestSystem(t, 24, 17, cfg)
	sys.ElectSummaryPeers(2)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	e.Run()
	return sys, e
}

// TestDeltaGossipFirstContactFullSync: the first tail on a link is a full
// snapshot (nothing acked, nothing sent); once the optimistic watermark is
// set, subsequent tails carry only the entries changed since.
func TestDeltaGossipFirstContactFullSync(t *testing.T) {
	sys, _ := deltaTestSystem(t)
	view := sys.net.Liveness()
	p := sys.peers[1]

	tail := sys.tailFor(p, 2)
	if !tail.Full {
		t.Fatal("first contact did not send a full snapshot")
	}
	if tail.Ver != view.Version() {
		t.Fatalf("full tail stamped version %d, view at %d", tail.Ver, view.Version())
	}
	if tail.Ack != 0 {
		t.Fatalf("first tail acked version %d without ever merging", tail.Ack)
	}

	// Nothing changed: the next tail is an empty delta, not a snapshot.
	tail = sys.tailFor(p, 2)
	if tail.Full || len(changesOf(tail.Delta)) != 0 {
		t.Fatalf("idle link sent %+v, want empty delta", tail)
	}

	// One entry changes: the delta names exactly that entry.
	view.MarkDead(7)
	tail = sys.tailFor(p, 2)
	delta := changesOf(tail.Delta)
	if tail.Full || len(delta) != 1 || delta[0].ID != 7 {
		t.Fatalf("delta after one change = %+v, want just id 7", delta)
	}
	if delta[0].E.State != liveness.Dead {
		t.Fatalf("delta carries state %s, want dead", delta[0].E.State)
	}
}

// changesOf lists a delta's entries in iteration order.
func changesOf(d liveness.Delta) []liveness.Change {
	var out []liveness.Change
	for id, e := range d.All() {
		out = append(out, liveness.Change{ID: id, E: e})
	}
	return out
}

// TestDeltaGossipAckHandling: a partner's Ack==0 (views start at version
// 1, so 0 means "never merged anything of yours") forces the next tail
// back to a full snapshot; a real ack re-enables deltas and advances the
// link even past a drop-regressed watermark.
func TestDeltaGossipAckHandling(t *testing.T) {
	sys, _ := deltaTestSystem(t)
	p := sys.peers[1]
	const partner = 2

	sys.tailFor(p, partner) // first contact: full, watermark set
	l := p.link(partner)
	if l.sent == 0 {
		t.Fatal("send did not set the optimistic watermark")
	}

	// The partner reports it never merged us: re-baseline.
	sys.absorbTail(p, partner, &GossipTail{Ver: 5, Ack: 0}, false)
	if l.sent != 0 || l.acked != 0 {
		t.Fatalf("Ack=0 left link at sent=%d acked=%d, want 0/0", l.sent, l.acked)
	}
	if tail := sys.tailFor(p, partner); !tail.Full {
		t.Fatal("tail after Ack=0 not a full snapshot")
	}

	// A real ack: deltas resume from the acknowledged version.
	ver := sys.net.Liveness().Version()
	sys.absorbTail(p, partner, &GossipTail{Ver: 6, Ack: ver}, false)
	if l.acked != ver {
		t.Fatalf("ack %d not recorded (got %d)", ver, l.acked)
	}
	if l.seen != 6 {
		t.Fatalf("partner version not tracked: seen=%d, want 6", l.seen)
	}
	if tail := sys.tailFor(p, partner); tail.Full {
		t.Fatal("acked link fell back to a full snapshot")
	} else if tail.Ack != 6 {
		t.Fatalf("tail acks %d, want the partner's version 6", tail.Ack)
	}
}

// TestDeltaGossipVersionRegression: a tail whose Ver is below what the
// link already saw reveals a partner restart — the link re-baselines and
// the next tail is a full snapshot.
func TestDeltaGossipVersionRegression(t *testing.T) {
	sys, _ := deltaTestSystem(t)
	p := sys.peers[1]
	const partner = 3

	sys.absorbTail(p, partner, &GossipTail{Ver: 10, Ack: sys.net.Liveness().Version()}, false)
	sys.tailFor(p, partner)
	l := p.link(partner)
	if l.seen != 10 || l.sent == 0 {
		t.Fatalf("setup: seen=%d sent=%d", l.seen, l.sent)
	}

	// The partner comes back with a fresh view (version restarted at 3).
	sys.absorbTail(p, partner, &GossipTail{Ver: 3, Ack: 0}, false)
	if l.seen != 3 {
		t.Fatalf("regressed partner tracked at seen=%d, want 3", l.seen)
	}
	if l.sent != 0 || l.acked != 0 {
		t.Fatalf("restart left link at sent=%d acked=%d, want 0/0", l.sent, l.acked)
	}
	if tail := sys.tailFor(p, partner); !tail.Full {
		t.Fatal("tail after partner restart not a full snapshot")
	}
}

// TestDeltaGossipDropRegression: a dropped gossip-carrying message rewinds
// the sender's optimistic watermark to the acknowledged version, so the
// next tail re-covers what the drop lost — for the gossip message itself
// and for piggybacked push/reconcile tails alike.
func TestDeltaGossipDropRegression(t *testing.T) {
	sys, _ := deltaTestSystem(t)
	p := sys.peers[1]
	const partner = 4

	payloads := []any{
		GossipPayload{Tail: GossipTail{Ver: 9}},
		PushPayload{V: Stale, Gossip: &GossipTail{Ver: 9}},
		&ReconcilePayload{SP: 0, Gossip: &GossipTail{Ver: 9}},
	}
	for _, pl := range payloads {
		l := p.link(partner)
		l.acked, l.sent = 3, 9
		sys.regressGossip(&p2p.Message{Type: MsgGossip, From: p.id, To: partner, Payload: pl})
		if l.sent != 3 {
			t.Fatalf("%T: watermark after drop = %d, want the acked 3", pl, l.sent)
		}
	}

	// A tail-less payload regresses nothing.
	l := p.link(partner)
	l.acked, l.sent = 3, 9
	sys.regressGossip(&p2p.Message{Type: MsgPush, From: p.id, To: partner, Payload: PushPayload{V: Stale}})
	if l.sent != 9 {
		t.Fatalf("tail-less drop moved the watermark to %d", l.sent)
	}
}

// runDeltaChurnTrace replays one deterministic churn trace (joins, silent
// leaves, modification pushes, scheduled gossip rounds) and returns the
// final membership view, a coverage series, and the gossip byte volume.
func runDeltaChurnTrace(t *testing.T, fullSnapshots bool) (string, []float64, int64) {
	t.Helper()
	g, err := topology.BarabasiAlbert(60, 2, nil, rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.New()
	net := p2p.NewNetwork(engine, g, 23)
	cfg := DefaultConfig()
	cfg.GossipPiggyback = true
	cfg.GossipFullSnapshots = fullSnapshots
	sys, err := NewSystem(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.ElectSummaryPeers(3)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	sps := make(map[p2p.NodeID]bool)
	for _, sp := range sys.SummaryPeers() {
		sps[sp] = true
	}
	rng := rand.New(rand.NewSource(29))
	const horizon = sim.Time(7200)
	for i := 0; i < 150; i++ {
		id := p2p.NodeID(rng.Intn(60))
		if sps[id] {
			continue
		}
		at := sim.Time(rng.Float64() * float64(horizon))
		switch rng.Intn(3) {
		case 0:
			engine.At(at, func() { sys.Leave(id, rng.Intn(2) == 0) })
		case 1:
			engine.At(at, func() { sys.Join(id) })
		default:
			engine.At(at, func() { sys.MarkModified(id) })
		}
	}
	for at := sim.Time(100); at < horizon; at += 100 {
		engine.At(at, func() { sys.GossipRound() })
	}
	var coverages []float64
	for i := 1; i <= 8; i++ {
		engine.At(horizon*sim.Time(i)/8, func() {
			coverages = append(coverages, sys.Coverage())
		})
	}
	engine.RunUntil(horizon)
	return net.Liveness().String(), coverages, net.Bytes().Get(MsgGossip)
}

// TestDeltaGossipEquivalenceOnChurnTrace: the same churn trace under delta
// gossip and under full snapshots converges to the identical membership
// view with the identical coverage series — deterministically — while the
// deltas cost materially fewer gossip bytes.
func TestDeltaGossipEquivalenceOnChurnTrace(t *testing.T) {
	viewDelta, covDelta, bytesDelta := runDeltaChurnTrace(t, false)
	viewFull, covFull, bytesFull := runDeltaChurnTrace(t, true)
	if viewDelta != viewFull {
		t.Errorf("final views diverge:\ndelta: %s\nfull:  %s", viewDelta, viewFull)
	}
	if fmt.Sprint(covDelta) != fmt.Sprint(covFull) {
		t.Errorf("coverage series diverge:\ndelta: %v\nfull:  %v", covDelta, covFull)
	}
	if bytesDelta >= bytesFull {
		t.Errorf("delta gossip (%d B) not cheaper than full snapshots (%d B)", bytesDelta, bytesFull)
	}
	// Determinism: the same mode replays to the same outcome.
	viewAgain, covAgain, bytesAgain := runDeltaChurnTrace(t, false)
	if viewAgain != viewDelta || fmt.Sprint(covAgain) != fmt.Sprint(covDelta) || bytesAgain != bytesDelta {
		t.Error("delta-gossip churn trace is not deterministic")
	}
}
