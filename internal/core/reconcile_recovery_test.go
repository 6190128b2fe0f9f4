package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2psum/internal/p2p"
	"p2psum/internal/topology"
)

// Reconciliation loss recovery (ROADMAP bug): a §4.2.2 ring token dropped
// by a lossy link used to leave the summary peer in `reconciling` forever.
// The retransmit timer restarts the ring; after the retry budget it aborts
// so the next push can re-trigger. The deterministic tests simulate a lost
// token directly (the event engine is lossless by construction); the
// channel test drives real packet loss.

// lostToken puts the summary peer in the exact state a dropped token
// leaves behind: reconciling, a live ring generation, no token in flight.
func lostToken(sys *System, sp p2p.NodeID, retries int) *Peer {
	p := sys.Peer(sp)
	p.reconciling = true
	p.retriesLeft = retries
	p.reconcileSeq++
	p.armReconcileTimer(len(p.onlinePartners()))
	return p
}

func TestReconcileTimerRetransmits(t *testing.T) {
	sys, e := newTestSystem(t, 30, 17, DefaultConfig())
	sys.ElectSummaryPeers(1)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	sp := sys.SummaryPeers()[0]
	p := lostToken(sys, sp, sys.reconcileRetries())
	e.Run()
	st := sys.Stats()
	if st.ReconcileRetransmits != 1 {
		t.Errorf("retransmits = %d, want 1", st.ReconcileRetransmits)
	}
	if st.Reconciliations != 1 {
		t.Errorf("reconciliations = %d, want 1 (retransmitted ring must complete)", st.Reconciliations)
	}
	if p.reconciling {
		t.Error("summary peer still reconciling after recovery")
	}
	// Every online partner was freshened by the recovered ring.
	for _, id := range p.onlinePartners() {
		if v, _ := p.cl.Get(id); v != Fresh {
			t.Errorf("partner %d is %v after recovered reconciliation", id, v)
		}
	}
}

func TestReconcileAbortsAfterRetryBudget(t *testing.T) {
	sys, e := newTestSystem(t, 20, 18, DefaultConfig())
	sys.ElectSummaryPeers(1)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	sp := sys.SummaryPeers()[0]
	p := lostToken(sys, sp, 0) // budget already exhausted
	e.Run()
	st := sys.Stats()
	if st.ReconcileAborts != 1 {
		t.Errorf("aborts = %d, want 1", st.ReconcileAborts)
	}
	if st.Reconciliations != 0 {
		t.Errorf("reconciliations = %d, want 0", st.Reconciliations)
	}
	if p.reconciling {
		t.Error("summary peer stuck reconciling after abort")
	}
	// The abandoned round did not reset freshness: the next push can
	// re-trigger reconciliation immediately.
	if p.cl.StaleFraction() != 0 {
		// Construction leaves everything fresh; just assert re-trigger works.
		t.Logf("stale fraction %v after abort", p.cl.StaleFraction())
	}
	for _, id := range p.onlinePartners() {
		p.cl.Set(id, Stale)
	}
	p.maybeReconcile()
	e.Run()
	if sys.Stats().Reconciliations != 1 {
		t.Error("push after abort did not re-trigger reconciliation")
	}
}

func TestReconcileTimeoutDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReconcileTimeout = -1 // the paper's reliable-link behavior
	sys, e := newTestSystem(t, 20, 19, cfg)
	sys.ElectSummaryPeers(1)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	sp := sys.SummaryPeers()[0]
	p := lostToken(sys, sp, sys.reconcileRetries())
	e.Run()
	if !p.reconciling {
		t.Error("recovery ran although the timeout is disabled")
	}
	if st := sys.Stats(); st.ReconcileRetransmits != 0 || st.ReconcileAborts != 0 {
		t.Errorf("recovery stats moved with timeout disabled: %+v", st)
	}
}

// TestStaleTokenIgnored: a token of a superseded ring generation (the one
// presumed lost, limping home after the retransmit) must not complete the
// round twice or clobber the newer ring's state.
func TestStaleTokenIgnored(t *testing.T) {
	sys, e := newTestSystem(t, 20, 23, DefaultConfig())
	sys.ElectSummaryPeers(1)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	sp := sys.SummaryPeers()[0]
	p := sys.Peer(sp)
	p.reconciling = true
	p.retriesLeft = 1
	p.reconcileSeq = 5
	stale := &ReconcilePayload{SP: sp, Seq: 4, Merged: p.onlinePartners()}
	p.completeReconcile(stale)
	if !p.reconciling {
		t.Fatal("stale token completed the newer ring")
	}
	if sys.Stats().Reconciliations != 0 {
		t.Errorf("stale token counted as a reconciliation")
	}
	// The live generation still completes normally.
	p.completeReconcile(&ReconcilePayload{SP: sp, Seq: 5, Merged: p.onlinePartners()})
	e.Run()
	if p.reconciling || sys.Stats().Reconciliations != 1 {
		t.Errorf("live token did not complete: reconciling=%v stats=%+v", p.reconciling, sys.Stats())
	}
}

// TestSummaryPeerFailureMidRing: a summary peer that fails while its ring
// is in flight must not wedge the engine (the token once ping-ponged
// forever between the resend path and the drop handler) and must not
// retransmit rings from beyond the grave when its loss timer fires; after
// rejoining it reconciles normally again.
func TestSummaryPeerFailureMidRing(t *testing.T) {
	sys, e := newTestSystem(t, 30, 41, DefaultConfig())
	sys.ElectSummaryPeers(1)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	sp := sys.SummaryPeers()[0]
	p := sys.Peer(sp)

	// Launch a ring, then fail the SP before any token movement.
	for _, id := range p.onlinePartners() {
		p.cl.Set(id, Stale)
	}
	p.maybeReconcile()
	if !p.reconciling {
		t.Fatal("ring did not start")
	}
	sys.Leave(sp, false)
	e.Run() // must quiesce: the token dies at the departed SP

	st := sys.Stats()
	if st.ReconcileRetransmits != 0 {
		t.Errorf("offline SP retransmitted %d rings", st.ReconcileRetransmits)
	}
	if st.Reconciliations != 0 {
		t.Errorf("offline SP completed %d reconciliations", st.Reconciliations)
	}
	if p.reconciling {
		t.Error("departed SP still flagged reconciling after its loss timer")
	}

	// The returning SP resumes its role and reconciles again.
	sys.Join(sp)
	e.Run()
	for _, id := range p.onlinePartners() {
		p.cl.Set(id, Stale)
	}
	p.maybeReconcile()
	e.Run()
	if sys.Stats().Reconciliations != 1 {
		t.Errorf("rejoined SP reconciled %d times, want 1", sys.Stats().Reconciliations)
	}
}

// TestReconcileLossRecoveryChannel: under real packet loss on the channel
// transport, the summary peer never sticks in `reconciling` — the
// ROADMAP's observed -loss 0.2 hang. Rounds either complete (possibly
// after retransmits) or abort and get re-triggered by the next push.
func TestReconcileLossRecoveryChannel(t *testing.T) {
	g, err := topology.BarabasiAlbert(14, 2, nil, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	ct := p2p.NewChannelTransport(g, 31, p2p.ChannelConfig{LossRate: 0.2})
	t.Cleanup(ct.Close)
	cfg := DefaultConfig()
	cfg.ReconcileTimeout = 5 // virtual seconds -> ~5ms real at default timer scale
	cfg.ReconcileRetries = 10
	sys, err := NewSystem(ct, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.ElectSummaryPeers(1)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	sp := sys.SummaryPeers()[0]

	deadline := time.Now().Add(20 * time.Second)
	for {
		// Hammer modifications so pushes (themselves lossy) keep tripping α.
		var partners []p2p.NodeID
		ct.Exec(func() { partners = sys.Peer(sp).CooperationList().Partners() })
		for _, id := range partners {
			sys.MarkModified(id)
		}
		ct.Settle()

		var st Stats
		var reconciling bool
		ct.Exec(func() {
			st = sys.Stats()
			reconciling = sys.Peer(sp).reconciling
		})
		if st.Reconciliations > 0 && !reconciling {
			return // recovered: at least one round completed and none is stuck
		}
		if time.Now().After(deadline) {
			t.Fatalf("no completed reconciliation under loss: stats=%+v reconciling=%v", st, reconciling)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// reconcileDropCounter is a ChannelTransport that counts the ring tokens
// its drop callback hands back to their senders.
type reconcileDropCounter struct {
	*p2p.ChannelTransport
	drops atomic.Int64
}

func (d *reconcileDropCounter) SetDrop(fn func(*p2p.Message)) {
	d.ChannelTransport.SetDrop(func(msg *p2p.Message) {
		if msg.Type == MsgReconcile {
			d.drops.Add(1)
		}
		fn(msg)
	})
}

// TestRingTokenDropHandoffOverChannelTransport runs rings over a two-group
// ChannelTransport in which, each round, every link into one fresh
// partner is severed: the token sent to it comes back through the drop
// callback — on the sender's dispatcher, often another goroutine than the
// one that dropped it — and the sender, owning the token again, forwards
// it on. Loss recovery is off, so every ring completes through that
// handoff or not at all. Run under -race it checks the pointer token's
// ownership handoff across goroutines.
func TestRingTokenDropHandoffOverChannelTransport(t *testing.T) {
	g, err := topology.BarabasiAlbert(120, 2, nil, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	ct := p2p.NewChannelTransport(g, 31, p2p.ChannelConfig{
		LatencyScale: time.Microsecond,
		Dispatchers:  2,
		GroupBy:      func(id p2p.NodeID) int { return int(id) % 2 },
	})
	t.Cleanup(ct.Close)
	net := &reconcileDropCounter{ChannelTransport: ct}
	cfg := DefaultConfig()
	cfg.ReconcileTimeout = -1 // no retransmit: only the drop path can finish a ring
	cfg.GossipPiggyback = true
	sys, err := NewSystem(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.ElectSummaryPeers(2)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	ct.Settle()
	sp := sys.SummaryPeers()[0]

	var mu sync.Mutex
	var rings [][]p2p.NodeID
	sys.OnReconcile = func(id p2p.NodeID, merged []p2p.NodeID) {
		if id == sp {
			mu.Lock()
			rings = append(rings, append([]p2p.NodeID(nil), merged...))
			mu.Unlock()
		}
	}
	var victims []p2p.NodeID
	const rounds = 4
	for round := 0; round < rounds; round++ {
		var partners []p2p.NodeID
		for _, id := range sys.Peer(sp).CooperationList().Partners() {
			if ct.Online(id) {
				partners = append(partners, id)
			}
		}
		if len(partners) < 3 {
			t.Fatalf("round %d: only %d online partners left", round, len(partners))
		}
		victim := partners[len(partners)/2]
		victims = append(victims, victim)
		ct.SetLinkFilter(func(from, to p2p.NodeID) bool { return to == victim })
		mu.Lock()
		rings = nil
		mu.Unlock()
		sys.MarkModifiedAll(partners)
		ct.Settle()

		mu.Lock()
		got := rings
		mu.Unlock()
		if len(got) == 0 {
			t.Fatalf("round %d: no ring completed with partner %d unreachable", round, victim)
		}
		for _, merged := range got {
			for _, id := range merged {
				if id == victim {
					t.Fatalf("round %d: unreachable partner %d merged into the ring", round, victim)
				}
			}
		}
		var stuck bool
		ct.Exec(func() { stuck = sys.Peer(sp).reconciling })
		if stuck {
			t.Fatalf("round %d: summary peer still reconciling after Settle", round)
		}
	}
	ct.SetLinkFilter(nil)
	if n := net.drops.Load(); n < rounds {
		t.Errorf("%d ring tokens came back through the drop callback over %d rounds, want at least one per round (victims %v)", n, rounds, victims)
	}
}
