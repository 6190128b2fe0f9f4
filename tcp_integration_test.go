package p2psum

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"p2psum/internal/bk"
	"p2psum/internal/core"
	"p2psum/internal/liveness"
	"p2psum/internal/p2p"
	"p2psum/internal/routing"
	"p2psum/internal/topology"
)

// The TCP loopback integration test: two transports on real 127.0.0.1
// sockets — the same split the cmd/p2pnode daemon deploys as two OS
// processes — construct a summary domain, complete a ring reconciliation
// whose token crosses the wire, answer a data-level query through the
// remote query service, and report byte volumes that equal the sum of
// encoded frame lengths.

// tcpProc is one "process": a transport hosting half the overlay plus its
// own protocol stack instance.
type tcpProc struct {
	tr  *p2p.TCPTransport
	sys *core.System
	qs  *routing.QueryService
}

func newTCPProc(t *testing.T, g *topology.Graph, local []p2p.NodeID) *tcpProc {
	t.Helper()
	tr, err := p2p.NewTCPTransport(g, p2p.TCPConfig{Listen: "127.0.0.1:0", Local: local})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	cfg := core.DefaultConfig()
	cfg.DataLevel = true
	cfg.BK = bk.Medical()
	cfg.Alpha = 0.3
	cfg.ReconcileTimeout = 100000 // no loss on loopback; keep retransmits out
	sys, err := core.NewSystem(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &tcpProc{tr: tr, sys: sys, qs: routing.NewQueryService(sys)}
}

func TestTCPLoopbackDomainEndToEnd(t *testing.T) {
	const records = 30
	// A 4-node star: hub 0 is the summary peer, spokes 1-3 its clients.
	g := topology.NewGraph(4)
	for _, spoke := range []int{1, 2, 3} {
		if err := g.AddEdge(0, spoke, 0.01); err != nil {
			t.Fatal(err)
		}
	}
	// Process A hosts the summary peer and client 1; process B clients 2-3.
	a := newTCPProc(t, g, []p2p.NodeID{0, 1})
	b := newTCPProc(t, g, []p2p.NodeID{2, 3})
	hostsA := map[p2p.NodeID]string{2: b.tr.ListenAddr(), 3: b.tr.ListenAddr()}
	hostsB := map[p2p.NodeID]string{0: a.tr.ListenAddr(), 1: a.tr.ListenAddr()}
	if err := a.tr.SetHosts(hostsA); err != nil {
		t.Fatal(err)
	}
	if err := b.tr.SetHosts(hostsB); err != nil {
		t.Fatal(err)
	}
	if err := a.tr.DialPeers(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := b.tr.DialPeers(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Each process owns the data of its local nodes only.
	mkTree := func(p *tcpProc, id p2p.NodeID) {
		rel := GeneratePatients(int64(500+id), records)
		tr, err := Summarize(rel, bk.Medical(), PeerID(id))
		if err != nil {
			t.Fatal(err)
		}
		p.sys.SetLocalTree(id, tr)
	}
	for _, id := range []p2p.NodeID{0, 1} {
		mkTree(a, id)
	}
	for _, id := range []p2p.NodeID{2, 3} {
		mkTree(b, id)
	}

	// Both processes know the domain layout; each drives its local share
	// of the construction (p2p.Localizer gating in core.Construct).
	a.sys.AssignSummaryPeers([]p2p.NodeID{0})
	b.sys.AssignSummaryPeers([]p2p.NodeID{0})
	if err := a.sys.Construct(); err != nil {
		t.Fatal(err)
	}
	if err := b.sys.Construct(); err != nil {
		t.Fatal(err)
	}
	b.tr.Settle()

	// Every client found the summary peer — including B's, whose adoption
	// ran in B's process off a broadcast that crossed the wire.
	if got := a.sys.DomainOf(1); got != 0 {
		t.Fatalf("A client 1 in domain %d", got)
	}
	for _, id := range []p2p.NodeID{2, 3} {
		if got := b.sys.DomainOf(id); got != 0 {
			t.Fatalf("B client %d in domain %d", id, got)
		}
	}
	cl := a.sys.Peer(0).CooperationList()
	if cl.Len() != 3 {
		t.Fatalf("cooperation list has %d partners, want 3: %s", cl.Len(), cl)
	}

	// Reconciliation: B's clients push modifications; the stale fraction
	// (2/3) crosses α and the ring token visits partner 1 in process A and
	// partners 2-3 in process B before returning to the summary peer.
	b.sys.MarkModifiedAll([]p2p.NodeID{2, 3})
	b.tr.Settle()
	a.tr.Settle()
	if got := a.sys.Stats().Reconciliations; got != 1 {
		t.Fatalf("reconciliations = %d, want 1", got)
	}
	gs := a.sys.Peer(0).GlobalSummary()
	if gs == nil {
		t.Fatal("no global summary after reconciliation")
	}
	if err := gs.Validate(); err != nil {
		t.Fatal(err)
	}
	// The reconciled summary covers all four databases — merged across
	// two processes — at full weight.
	if got, want := gs.Root().Count(), float64(4*records); math.Abs(got-want) > 1e-6 {
		t.Fatalf("global summary weight %g, want %g", got, want)
	}
	for _, id := range []p2p.NodeID{1, 2, 3} {
		if !slices.Contains(gs.Root().AppendPeerIDs(nil), PeerID(id)) {
			t.Errorf("global summary misses peer %d's extent", id)
		}
	}

	// A data-level query from process B travels to the summary peer in
	// process A and returns the domain's approximate answer.
	q, err := Reformulate(bk.Medical(), []string{"age"}, []Predicate{
		{Attr: "disease", Op: Eq, Strs: []string{"tuberculosis"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := b.qs.Ask(2, q, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote.Answer.Classes) == 0 {
		t.Fatal("remote query returned no approximate answer")
	}
	// It matches the in-process evaluation at the summary peer exactly.
	local, err := routing.RouteData(a.sys, 1, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(remote.Peers, local.Peers) {
		t.Errorf("remote PQ %v != local PQ %v", remote.Peers, local.Peers)
	}
	if !reflect.DeepEqual(remote.Answer, local.Answer) {
		t.Error("remote approximate answer diverges from the in-process one")
	}
	b.tr.Settle()
	a.tr.Settle()

	// Byte accounting: the reported volumes are exactly the sum of encoded
	// frame lengths — local frames plus frames that crossed the sockets —
	// and every byte one side sent, the other received.
	for name, p := range map[string]*tcpProc{"A": a, "B": b} {
		ws := p.tr.WireStats()
		if total := p.tr.Bytes().Total(); total != ws.SentBytes+ws.LocalBytes+ws.ChargedBytes {
			t.Errorf("%s: Bytes() total %d != sent %d + local %d + frameless %d",
				name, total, ws.SentBytes, ws.LocalBytes, ws.ChargedBytes)
		}
	}
	wsA, wsB := a.tr.WireStats(), b.tr.WireStats()
	if wsA.SentBytes != wsB.RecvBytes || wsB.SentBytes != wsA.RecvBytes {
		t.Errorf("wire bytes asymmetric: A sent %d / B recv %d, B sent %d / A recv %d",
			wsA.SentBytes, wsB.RecvBytes, wsB.SentBytes, wsA.RecvBytes)
	}
	if wsA.SentFrames == 0 || wsB.SentFrames == 0 {
		t.Error("no frames crossed the sockets — the scenario did not exercise TCP")
	}
}

// TestTCPLivenessGossipConvergence is the §4.3 symmetry acceptance test:
// two processes of one TCP domain run the liveness gossip, one of them
// silently kills a hosted peer, and the OTHER process's membership view
// marks it dead — suspect first via drop echoes, dead via gossip or its own
// confirmation timer — after which Coverage and DomainMembers report the
// same figures on both sides. A rejoin converges back the same way.
func TestTCPLivenessGossipConvergence(t *testing.T) {
	g := topology.NewGraph(4)
	for _, spoke := range []int{1, 2, 3} {
		if err := g.AddEdge(0, spoke, 0.01); err != nil {
			t.Fatal(err)
		}
	}
	newProc := func(local []p2p.NodeID) (*p2p.TCPTransport, *core.System) {
		tr, err := p2p.NewTCPTransport(g, p2p.TCPConfig{Listen: "127.0.0.1:0", Local: local})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		cfg := core.DefaultConfig()
		cfg.GossipInterval = 50 // 50 ms real at the 1ms/virtual-second scale
		cfg.GossipPiggyback = true
		cfg.SuspectTimeout = 20
		cfg.ReconcileTimeout = 100000
		sys, err := core.NewSystem(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr, sys
	}
	trA, sysA := newProc([]p2p.NodeID{0, 1})
	trB, sysB := newProc([]p2p.NodeID{2, 3})
	if err := trA.SetHosts(map[p2p.NodeID]string{2: trB.ListenAddr(), 3: trB.ListenAddr()}); err != nil {
		t.Fatal(err)
	}
	if err := trB.SetHosts(map[p2p.NodeID]string{0: trA.ListenAddr(), 1: trA.ListenAddr()}); err != nil {
		t.Fatal(err)
	}
	if err := trA.DialPeers(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := trB.DialPeers(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	sysA.AssignSummaryPeers([]p2p.NodeID{0})
	sysB.AssignSummaryPeers([]p2p.NodeID{0})
	if err := sysA.Construct(); err != nil {
		t.Fatal(err)
	}
	if err := sysB.Construct(); err != nil {
		t.Fatal(err)
	}
	trB.Settle()
	trA.Settle()

	// bothAgree polls until the predicate holds on both systems — each
	// side's view converges through gossip, a few intervals at most.
	bothAgree := func(what string, pred func(sys *core.System) bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if pred(sysA) && pred(sysB) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: views never agreed: A cov=%.2f members=%v view=[%s] / B cov=%.2f members=%v view=[%s]",
					what, sysA.Coverage(), sysA.DomainMembers(0), trA.Liveness(),
					sysB.Coverage(), sysB.DomainMembers(0), trB.Liveness())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	members := func(want ...p2p.NodeID) func(sys *core.System) bool {
		return func(sys *core.System) bool {
			return reflect.DeepEqual(sys.DomainMembers(0), want)
		}
	}

	// Construction seeds each process with its local claims only; gossip
	// spreads the rest until both report the full domain.
	bothAgree("after construction", members(0, 1, 2, 3))
	if covA, covB := sysA.Coverage(), sysB.Coverage(); covA != 1 || covB != 1 {
		t.Fatalf("coverage after convergence: A=%v B=%v, want 1", covA, covB)
	}

	// Process B silently kills its hosted peer 3. B's view walks
	// suspect -> dead locally; A must learn it through gossip (or its own
	// drop-echo suspicion) without any message from node 3 itself.
	// Suspect also leaves DomainMembers, so the wait holds out for the
	// confirmation as well: both views must hold node 3 Dead.
	sysB.Leave(3, false)
	bothAgree("after silent kill", func(sys *core.System) bool {
		return members(0, 1, 2)(sys) && sys.Transport().Liveness().StateOf(3) == liveness.Dead
	})
	if got := trA.Liveness().StateOf(3); got != liveness.Dead {
		t.Fatalf("A's view holds node 3 %s, want dead", got)
	}
	if covA, covB := sysA.Coverage(), sysB.Coverage(); covA != covB || covA != 1 {
		t.Fatalf("coverage diverged after the kill: A=%v B=%v", covA, covB)
	}

	// The rejoin round-trips: B marks 3 alive at a higher incarnation, the
	// adoption re-registers the domain claim, gossip convinces A.
	sysB.Join(3)
	bothAgree("after rejoin", members(0, 1, 2, 3))
	if got := trA.Liveness().StateOf(3); got != liveness.Alive {
		t.Fatalf("A's view holds node 3 %s after rejoin, want alive", got)
	}
}
