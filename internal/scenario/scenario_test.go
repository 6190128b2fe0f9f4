package scenario

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/core"
	"p2psum/internal/data"
	"p2psum/internal/liveness"
	"p2psum/internal/p2p"
	"p2psum/internal/routing"
	"p2psum/internal/saintetiq"
	"p2psum/internal/sim"
	"p2psum/internal/topology"
	"p2psum/internal/workload"
)

// Snapshot captures the adversary's current full view, to Replay later as
// stale state.
func (a *Adversary) Snapshot() []liveness.Entry {
	return a.sys.Transport().Liveness().Snapshot()
}

// Replay injects a previously captured snapshot at target as a full
// gossip exchange advertising a fresh version over stale entries — the
// stale-incarnation attack. Entries the view has since superseded are
// discarded by the merge's incarnation ordering; the test of interest is
// that nothing regresses.
func (a *Adversary) Replay(target p2p.NodeID, entries []liveness.Entry) {
	a.ver++
	a.sys.Transport().SendNew(core.MsgGossip, a.src, target, 0, core.GossipPayload{
		Tail:  core.GossipTail{Full: true, Delta: liveness.Entries(entries), Ver: a.ver},
		Reply: true,
	})
}

// The fault-scenario suite. The partition/heal tests run the same
// scripted scenario with and without the cut and require the post-heal
// outcome to be bit-identical to the never-partitioned oracle at the
// summary-leaf level — the repair must be a repair, not an
// approximation. The in-memory table covers the discrete-event Network
// and the channel transport at dispatcher counts 1 and 2; the TCP tests
// split one domain across two real processes (loopback sockets) and
// exercise the per-process-view degradation and gossip reconvergence the
// in-memory transports cannot express.

// ringedStars builds clusters disjoint stars whose hubs are joined in a
// ring — star domains with inter-domain links, so a partition aligned
// with domain boundaries severs real edges (queries degrade) while every
// domain stays internally intact.
func ringedStars(clusters, size int) (*topology.Graph, []int) {
	g := topology.NewGraph(clusters * size)
	hubs := make([]int, clusters)
	for c := 0; c < clusters; c++ {
		hub := c * size
		hubs[c] = hub
		for s := 1; s < size; s++ {
			if err := g.AddEdge(hub, hub+s, 0.05); err != nil {
				panic(err)
			}
		}
	}
	for c := 0; c < clusters; c++ {
		if err := g.AddEdge(hubs[c], hubs[(c+1)%clusters], 0.05); err != nil {
			panic(err)
		}
	}
	g.Compact()
	return g, hubs
}

// loadPatients gives every node a deterministic patient-data local
// summary: node id seeds the generator, so any two runs (and any two
// processes hosting the node) build the identical tree.
func loadPatients(t *testing.T, sys *core.System, cfg core.Config, ids []p2p.NodeID, records int) {
	t.Helper()
	mapper, err := cells.NewMapper(cfg.BK, data.PatientSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		gen := data.NewPatientGenerator(int64(900+id), nil)
		st := cells.NewStore(mapper)
		st.AddRelation(gen.Generate("db", records))
		tr := saintetiq.New(cfg.BK, cfg.TreeCfg)
		if err := tr.IncorporateStore(st, saintetiq.PeerID(id)); err != nil {
			t.Fatal(err)
		}
		sys.SetLocalTree(id, tr)
	}
}

const (
	partClusters = 4
	partSize     = 8 // hub + 7 spokes; alpha 0.3 triggers at 3 stale of 7
)

// partitionFP is the oracle-comparable outcome of one partition run.
type partitionFP struct {
	reconciliations int
	coverage        float64
	reports         []string
	snaps           []*saintetiq.Tree
}

// runPartitionScenario drives the scripted partition/heal scenario (or
// its never-partitioned oracle twin) on the given transport and returns
// the comparable outcome. Gossip stays off: the in-memory transports
// share one ground-truth view, which a cut with gossip on would poison
// for both sides at once (see the package doc); the §4.3 drop paths and
// the link filter carry the degradation instead. The TCP tests below
// cover the gossip/suspicion side with real per-process views.
func runPartitionScenario(t *testing.T, kind string, cut bool) partitionFP {
	t.Helper()
	g, hubs := ringedStars(partClusters, partSize)
	var net p2p.Transport
	switch kind {
	case "network":
		net = p2p.NewNetwork(sim.New(), g, 11)
	case "channel":
		ct := p2p.NewChannelTransport(g, 11, p2p.ChannelConfig{})
		t.Cleanup(ct.Close)
		net = ct
	default:
		t.Fatalf("unknown transport kind %q", kind)
	}
	cfg := core.DefaultConfig()
	cfg.Alpha = 0.3
	cfg.DataLevel = true
	cfg.BK = bk.Medical()
	// In-memory links are lossless: the reconcile loss timer is pure
	// insurance, and on the real-time channel transport a short timeout
	// would race the ring itself under instrumented (-race) runs.
	cfg.ReconcileTimeout = 100000
	sys, err := core.NewSystem(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]p2p.NodeID, net.Len())
	for i := range all {
		all[i] = p2p.NodeID(i)
	}
	loadPatients(t, sys, cfg, all, 30)
	ids := make([]p2p.NodeID, len(hubs))
	for i, h := range hubs {
		ids[i] = p2p.NodeID(h)
	}
	sys.AssignSummaryPeers(ids)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	net.Settle()

	eng := New(sys)
	spoke := func(c, s int) p2p.NodeID { return p2p.NodeID(c*partSize + s) }
	wave := func(spokes ...int) {
		for _, s := range spokes {
			for c := 0; c < partClusters; c++ {
				sys.MarkModified(spoke(c, s))
			}
			net.Settle()
		}
	}
	query := func() int {
		// Ground truth: one matching spoke on each side of the cut.
		oracle := &routing.Oracle{Current: map[p2p.NodeID]bool{
			spoke(0, 6): true, spoke(2, 6): true,
		}}
		return routing.FloodQuery(net, spoke(0, 5), 3, oracle, 2).Results
	}

	wave(1, 2, 3) // reconciliation 1 in every domain

	if cut {
		var left, right []p2p.NodeID
		for id := 0; id < 2*partSize; id++ {
			left = append(left, p2p.NodeID(id))
		}
		for id := 2 * partSize; id < partClusters*partSize; id++ {
			right = append(right, p2p.NodeID(id))
		}
		eng.Partition(left, right)
		eng.mu.Lock()
		s3, ok3 := eng.side[p2p.NodeID(hubs[3])]
		s0, ok0 := eng.side[p2p.NodeID(hubs[0])]
		eng.mu.Unlock()
		if !ok3 || !ok0 || s3 == s0 {
			t.Fatal("hub ring link across the cut not severed")
		}
		// During the split the left side still answers its local share of
		// the query; the right side is dark to it.
		if got := query(); got != 1 {
			t.Fatalf("during split: flood query returned %d results, want 1 (local side only)", got)
		}
	}

	wave(4, 5, 6) // reconciliation 2 — both sides keep reconciling through the split

	if cut {
		if got := sys.Stats().Reconciliations; got != 2*partClusters {
			t.Fatalf("during split: %d reconciliations, want %d (both sides kept working)",
				got, 2*partClusters)
		}
		eng.Heal()
		net.Settle()
		if got := query(); got != 2 {
			t.Fatalf("after heal: flood query returned %d results, want 2 (both sides)", got)
		}
	}

	wave(1, 2, 3) // reconciliation 3 — the post-heal repair round

	fp := partitionFP{
		reconciliations: sys.Stats().Reconciliations,
		coverage:        sys.Coverage(),
	}
	for _, r := range sys.ReportAll() {
		fp.reports = append(fp.reports, r.String())
	}
	for _, sp := range sys.SummaryPeers() {
		fp.snaps = append(fp.snaps, sys.Peer(sp).GlobalSummary())
	}
	return fp
}

// TestPartitionHealOracle: on both in-memory transports (the channel
// transport's one dispatch lane is the "channel-1" case), the
// partition/heal run ends bit-identical (summary leaves, domain reports,
// coverage, reconciliation count) to the never-partitioned oracle run.
func TestPartitionHealOracle(t *testing.T) {
	cases := []struct{ name, kind string }{
		{"network", "network"},
		{"channel-1", "channel"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oracle := runPartitionScenario(t, tc.kind, false)
			got := runPartitionScenario(t, tc.kind, true)
			if got.reconciliations != oracle.reconciliations {
				t.Errorf("reconciliations %d, oracle %d", got.reconciliations, oracle.reconciliations)
			}
			if got.coverage != 1 || oracle.coverage != 1 {
				t.Errorf("coverage %v / oracle %v, want 1", got.coverage, oracle.coverage)
			}
			if len(got.reports) != len(oracle.reports) {
				t.Fatalf("%d reports, oracle %d", len(got.reports), len(oracle.reports))
			}
			for i := range got.reports {
				if got.reports[i] != oracle.reports[i] {
					t.Errorf("report %d:\n got  %s\n want %s", i, got.reports[i], oracle.reports[i])
				}
			}
			if len(got.snaps) != len(oracle.snaps) {
				t.Fatalf("%d summaries, oracle %d", len(got.snaps), len(oracle.snaps))
			}
			for i := range got.snaps {
				if got.snaps[i] == nil || !got.snaps[i].LeavesEqual(oracle.snaps[i]) {
					t.Errorf("domain %d: post-heal global summary differs from the unpartitioned oracle", i)
				}
			}
		})
	}
}

// tcpStack is one "process" of a loopback TCP deployment.
type tcpStack struct {
	tr  *p2p.TCPTransport
	sys *core.System
}

// newTCPPair deploys the overlay across two loopback processes and wires
// the protocol stacks. mut tweaks the shared config.
func newTCPPair(t *testing.T, g *topology.Graph, localA, localB []p2p.NodeID, mut func(*core.Config)) (a, b *tcpStack) {
	t.Helper()
	mk := func(local []p2p.NodeID) *tcpStack {
		tr, err := p2p.NewTCPTransport(g, p2p.TCPConfig{Listen: "127.0.0.1:0", Local: local})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		cfg := core.DefaultConfig()
		cfg.ReconcileTimeout = 100000 // loopback does not lose frames; keep retransmits out
		cfg.GossipPiggyback = true
		if mut != nil {
			mut(&cfg)
		}
		sys, err := core.NewSystem(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return &tcpStack{tr: tr, sys: sys}
	}
	a, b = mk(localA), mk(localB)
	hostsA := make(map[p2p.NodeID]string)
	hostsB := make(map[p2p.NodeID]string)
	for _, id := range localB {
		hostsA[id] = b.tr.ListenAddr()
	}
	for _, id := range localA {
		hostsB[id] = a.tr.ListenAddr()
	}
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
	return a, b
}

func settleBoth(a, b *tcpStack) {
	a.tr.Settle()
	b.tr.Settle()
	a.tr.Settle()
}

// waitTCP drives gossip rounds on both stacks until cond holds or the
// deadline passes.
func waitTCP(t *testing.T, a, b *tcpStack, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s\nA view: %s\nB view: %s",
				what, a.tr.Liveness(), b.tr.Liveness())
		}
		a.sys.GossipRound()
		b.sys.GossipRound()
		settleBoth(a, b)
		time.Sleep(5 * time.Millisecond)
	}
}

// allAlive reports whether every node is Alive in the view.
func allAlive(v *liveness.View) bool {
	for id := 0; id < v.Len(); id++ {
		if v.StateOf(id) != liveness.Alive {
			return false
		}
	}
	return true
}

// runTCPSplitDomain drives one domain — hub 0, spokes 1..5, split across
// two loopback processes — through the scripted modification waves, with
// or without a mid-run partition along the process boundary, and returns
// the final reconciled global summary.
func runTCPSplitDomain(t *testing.T, cut bool) *saintetiq.Tree {
	t.Helper()
	g := topology.NewGraph(6)
	for s := 1; s <= 5; s++ {
		if err := g.AddEdge(0, s, 0.01); err != nil {
			t.Fatal(err)
		}
	}
	g.Compact()
	localA := []p2p.NodeID{0, 1, 2}
	localB := []p2p.NodeID{3, 4, 5}
	a, b := newTCPPair(t, g, localA, localB, func(cfg *core.Config) {
		cfg.Alpha = 0.3
		cfg.DataLevel = true
		cfg.BK = bk.Medical()
		// The split must stay below the confirmation timeout: a partition
		// is an unconfirmed suspicion, not a death.
		cfg.SuspectTimeout = 30000
		cfg.ProactiveElection = true
	})
	loadPatients(t, a.sys, a.sys.Config(), localA, 20)
	loadPatients(t, b.sys, b.sys.Config(), localB, 20)
	a.sys.AssignSummaryPeers([]p2p.NodeID{0})
	b.sys.AssignSummaryPeers([]p2p.NodeID{0})
	if err := a.sys.Construct(); err != nil {
		t.Fatal(err)
	}
	if err := b.sys.Construct(); err != nil {
		t.Fatal(err)
	}
	settleBoth(a, b)
	for _, id := range []p2p.NodeID{3, 4, 5} {
		if got := b.sys.DomainOf(id); got != 0 {
			t.Fatalf("B client %d in domain %d before the scenario", id, got)
		}
	}

	eng := New(a.sys, b.sys)
	if cut {
		eng.Partition(localA, localB)
	}

	// Wave 1: the A side crosses alpha (2 of 5 stale) and reconciles —
	// through the split, the ring token skips the unreachable B partners.
	a.sys.MarkModifiedAll([]p2p.NodeID{1, 2})
	settleBoth(a, b)

	// Wave 2: the B side modifies. Unpartitioned, its pushes trigger a
	// normal reconciliation; across the cut they drop, B suspects the
	// summary peer, and — proactive election holding through the
	// unconfirmed suspicion — the members keep their domain.
	b.sys.MarkModifiedAll([]p2p.NodeID{3, 4})
	settleBoth(a, b)

	if cut {
		if allAlive(b.tr.Liveness()) {
			t.Fatal("during split: B never suspected the unreachable summary peer")
		}
		for _, id := range []p2p.NodeID{3, 4, 5} {
			if got := b.sys.DomainOf(id); got != 0 {
				t.Fatalf("during split: B client %d abandoned its domain (now %d)", id, got)
			}
		}
		// Both sides answer what they can reach: A serves its side of the
		// overlay, an isolated B spoke still serves its own data.
		resA := routing.FloodQuery(a.tr, 2, 2, &routing.Oracle{Current: map[p2p.NodeID]bool{1: true, 4: true}}, 2)
		if resA.Results != 1 {
			t.Fatalf("during split: A-side query got %d results, want 1", resA.Results)
		}
		resB := routing.FloodQuery(b.tr, 4, 2, &routing.Oracle{Current: map[p2p.NodeID]bool{1: true, 4: true}}, 2)
		if resB.Results != 1 {
			t.Fatalf("during split: B-side query got %d results, want 1", resB.Results)
		}

		eng.Heal()
		// After the filter lifts, liveness gossip crosses the cut again and
		// each process refutes the suspicions against its own nodes.
		waitTCP(t, a, b, "views to reconverge after heal", func() bool {
			return allAlive(a.tr.Liveness()) && allAlive(b.tr.Liveness())
		})
	}

	// Wave 3: one reconciliation round folds every member back in.
	a.sys.MarkModifiedAll([]p2p.NodeID{1})
	b.sys.MarkModifiedAll([]p2p.NodeID{3, 4})
	settleBoth(a, b)
	waitTCP(t, a, b, "post-heal reconciliation", func() bool {
		settleBoth(a, b)
		return a.sys.Stats().Reconciliations >= 2 && a.sys.Peer(0).CooperationList().StaleFraction() == 0
	})

	gs := a.sys.Peer(0).GlobalSummary()
	if gs == nil {
		t.Fatal("no global summary after the final reconciliation")
	}
	if err := gs.Validate(); err != nil {
		t.Fatal(err)
	}
	return gs
}

// TestTCPPartitionHealSplitDomain: a domain split across two TCP
// processes degrades gracefully on both sides, heals, reconverges its
// views through gossip refutation, and one reconciliation round restores
// a global summary bit-identical to the never-partitioned oracle.
func TestTCPPartitionHealSplitDomain(t *testing.T) {
	oracle := runTCPSplitDomain(t, false)
	got := runTCPSplitDomain(t, true)
	if !got.LeavesEqual(oracle) {
		t.Fatal("post-heal global summary differs from the unpartitioned oracle at the leaf level")
	}
}

// wheel is hub 0 plus a spoke ring 1..5: every spoke has static degree
// 3, and gossip keeps crossing between spokes after the hub dies (a bare
// star would disconnect).
func wheel(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.NewGraph(6)
	for s := 1; s <= 5; s++ {
		if err := g.AddEdge(0, s, 0.005); err != nil {
			t.Fatal(err)
		}
	}
	for s := 1; s <= 5; s++ {
		next := s%5 + 1
		if err := g.AddEdge(s, next, 0.005); err != nil {
			t.Fatal(err)
		}
	}
	g.Compact()
	return g
}

// newWheelPair builds one wheel domain split across two loopback
// processes with proactive election on: process A hosts 0, 1 and 2,
// process B 3, 4 and 5. The deterministic successor of the hub is the
// lowest-id spoke: node 1, hosted by A.
func newWheelPair(t *testing.T) (a, b *tcpStack) {
	t.Helper()
	g := wheel(t)
	a, b = newTCPPair(t, g, []p2p.NodeID{0, 1, 2}, []p2p.NodeID{3, 4, 5}, func(cfg *core.Config) {
		cfg.SuspectTimeout = 50 // 50ms real: the silent death confirms quickly
		cfg.ProactiveElection = true
	})
	a.sys.AssignSummaryPeers([]p2p.NodeID{0})
	b.sys.AssignSummaryPeers([]p2p.NodeID{0})
	if err := a.sys.Construct(); err != nil {
		t.Fatal(err)
	}
	if err := b.sys.Construct(); err != nil {
		t.Fatal(err)
	}
	settleBoth(a, b)
	return a, b
}

// waitSuccessor waits until node 1 is the one successor of the dead hub
// and every surviving member on both processes has adopted it. promote
// fires on a dispatcher goroutine when the confirm timer lands, which can
// be between the poll's settles — so the domain reads run under each
// transport's Exec barrier, not bare.
func waitSuccessor(t *testing.T, a, b *tcpStack) {
	t.Helper()
	waitTCP(t, a, b, "one successor elected and adopted everywhere", func() bool {
		ok := false
		a.tr.Exec(func() {
			ok = a.sys.Stats().Elections == 1 && a.sys.DomainOf(2) == 1
		})
		if !ok {
			return false
		}
		b.tr.Exec(func() {
			ok = b.sys.DomainOf(3) == 1 && b.sys.DomainOf(4) == 1 && b.sys.DomainOf(5) == 1
		})
		return ok
	})
	if got := b.sys.Stats().Elections; got != 0 {
		t.Fatalf("B promoted %d successors of its own, want 0 (the election is deterministic)", got)
	}
	if role := a.sys.Peer(1).Role(); role != core.RoleSummaryPeer {
		t.Fatalf("successor role = %v, want summary peer", role)
	}
}

// TestTCPElectionAcrossProcesses: killing a summary peer whose domain
// spans two TCP processes yields exactly one promoted successor — the
// deterministic winner — and every surviving member on both sides of the
// wire re-attaches to it. Covers the cross-process claim race: process B
// may merge the winner's claim and an A member's adoption of it before it
// runs its own election, and the winner's successor mark keeps it B's
// winner too.
func TestTCPElectionAcrossProcesses(t *testing.T) {
	a, b := newWheelPair(t)
	New(a.sys, b.sys).Fail(0) // silent summary-peer death, confirmed after the timeout
	waitSuccessor(t, a, b)
}

// TestSuccessorCountsUnheardNodes: a TCP process that confirms a summary
// peer's death before it has heard of the other process's members must
// not crown one of its own. Process B (nodes 3, 4 and 5 of the wheel)
// holds the hub dead and its own members' claims, but nodes 1 and 2 still
// at their initial records: they may be members, so node 1 stays the
// winner and B waits. Once B hears that they belong to no domain, its own
// node 3 wins.
func TestSuccessorCountsUnheardNodes(t *testing.T) {
	tr, err := p2p.NewTCPTransport(wheel(t), p2p.TCPConfig{Listen: "127.0.0.1:0", Local: []p2p.NodeID{3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	cfg := core.DefaultConfig()
	cfg.ProactiveElection = true
	sys, err := core.NewSystem(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	view := tr.Liveness()
	for _, id := range []int{0, 3, 4, 5} {
		view.SetSP(id, 0)
	}
	view.MarkDead(0)
	if got := sys.Successor(0); got != 1 {
		t.Fatalf("Successor = %d with nodes 1 and 2 unheard, want 1", got)
	}
	view.MergeChanges(liveness.Changes([]liveness.Change{
		{ID: 1, E: liveness.Entry{State: liveness.Alive, Inc: 1, SP: liveness.NoSP}},
		{ID: 2, E: liveness.Entry{State: liveness.Alive, Inc: 1, SP: liveness.NoSP}},
	}))
	if got := sys.Successor(0); got != 3 {
		t.Fatalf("Successor = %d once nodes 1 and 2 are heard outside the domain, want 3", got)
	}
}

// ForgeSuccession injects a forged successor mark at target: node
// allegedly promoted itself as the successor of summary peer dead,
// asserted at a superseding incarnation. Against a local node the claim
// is refuted on merge; a remote one holds until its host refutes it.
func (a *Adversary) ForgeSuccession(target, node, dead p2p.NodeID) {
	e := a.sys.Transport().Liveness().EntryOf(int(node))
	forged := liveness.Entry{State: liveness.Alive, Inc: e.Inc + 1, SP: int(node)}
	a.inject(target, []liveness.Change{{ID: int(node), E: forged.Succeeding(int(dead))}})
}

// TestForgedSuccessionIgnored: forged successor marks injected into live
// gossip move no member and mint no summary peer. They land at process A
// about nodes process B hosts, so A adopts them like any remote claim
// (on the in-memory transports every node is local, and local authority
// refutes a forged mark at the merge). A mark naming the live hub is
// inert: no death is confirmed. A mark naming the dead hub for a node
// that is not the computed winner loses to the winner's mark.
func TestForgedSuccessionIgnored(t *testing.T) {
	a, b := newWheelPair(t)
	adv := NewAdversary(a.sys, 2)
	members := func(s *tcpStack, ids ...p2p.NodeID) string {
		var out string
		s.tr.Exec(func() {
			for _, id := range ids {
				out += fmt.Sprintf("%d->%d ", id, s.sys.DomainOf(id))
			}
		})
		return out
	}

	// Converged views first: the forgery supersedes the truth only by one
	// incarnation, and a stale view would forge below it.
	waitTCP(t, a, b, "views to converge", func() bool {
		for id := 0; id < 6; id++ {
			if a.tr.Liveness().EntryOf(id) != b.tr.Liveness().EntryOf(id) {
				return false
			}
		}
		return true
	})
	adv.ForgeSuccession(1, 4, 0)
	settleBoth(a, b)
	if got := a.tr.Liveness().EntryOf(4).Succeeds(); got != 0 {
		t.Fatalf("forged mark did not land at A (node 4 succeeds %d)", got)
	}
	waitTCP(t, a, b, "B to refute the forged mark", func() bool {
		return a.tr.Liveness().EntryOf(4).Succeeds() == liveness.NoSP
	})
	if got, want := members(a, 1, 2)+members(b, 3, 4, 5), "1->0 2->0 3->0 4->0 5->0 "; got != want {
		t.Fatalf("a forged mark naming the live hub moved members: %s, want %s", got, want)
	}
	for _, s := range []*tcpStack{a, b} {
		if got := s.sys.Stats().Elections; got != 0 {
			t.Fatalf("a forged mark naming the live hub minted %d summary peers", got)
		}
	}

	// The hub dies; the forged mark lands while its death is still a
	// suspicion, so A's election runs with it in the candidate set.
	New(a.sys, b.sys).Fail(0)
	adv.ForgeSuccession(1, 5, 0)
	a.tr.Settle()
	if got := a.tr.Liveness().EntryOf(5).Succeeds(); got != 0 {
		t.Fatalf("forged mark did not land at A (node 5 succeeds %d)", got)
	}
	waitSuccessor(t, a, b)
	if role := b.sys.Peer(5).Role(); role != core.RoleClient {
		t.Fatalf("forged successor 5 has role %v, want client", role)
	}
}

// TestFlashCrowdNetwork: half the overlay leaves, then rejoins as a
// shaped arrival burst (workload.BurstArrivals over the discrete-event
// engine); the overlay absorbs the crowd back to full coverage and a
// truthful view.
func TestFlashCrowdNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g, err := topology.BarabasiAlbert(300, 2, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.New()
	net := p2p.NewNetwork(engine, g, 23)
	cfg := core.DefaultConfig()
	cfg.GossipPiggyback = true
	sys, err := core.NewSystem(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sps := sys.ElectSummaryPeers(8)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	net.Settle()

	eng := New(sys)
	isSP := make(map[p2p.NodeID]bool)
	for _, sp := range sps {
		isSP[sp] = true
	}
	var crowd []p2p.NodeID
	for id := 0; len(crowd) < 150 && id < net.Len(); id++ {
		if !isSP[p2p.NodeID(id)] {
			crowd = append(crowd, p2p.NodeID(id))
		}
	}
	for _, id := range crowd {
		eng.Leave(id)
	}
	net.Settle()
	if eng.Converged() {
		// Sanity: Converged must track the scripted departures.
		for _, id := range crowd {
			if net.Online(id) {
				t.Fatalf("node %d still online after scripted leave", id)
			}
		}
	} else {
		t.Fatal("view disagrees with the scripted departures")
	}

	// The flash crowd: shaped arrival offsets over a 60-virtual-second
	// window, scheduled on the event engine.
	offs := workload.BurstArrivals(rand.New(rand.NewSource(24)), len(crowd), sim.Time(60))
	start := engine.Now() + 1
	for i, id := range crowd {
		id := id
		engine.At(start+offs[i], func() { eng.Join(id) })
	}
	for at := start; at < start+90; at += 10 {
		engine.At(at, func() { sys.GossipRound() })
	}
	engine.RunUntil(start + 120)
	net.Settle()

	if got := sys.Coverage(); got != 1 {
		t.Fatalf("coverage %v after the flash crowd, want 1", got)
	}
	if !eng.Converged() {
		t.Fatal("views did not reconverge after the flash crowd")
	}
	if got := sys.Stats().Joins; got != len(crowd) {
		t.Fatalf("%d joins recorded, want %d", got, len(crowd))
	}
}

// TestAdversaryRefuted: forged obituaries, conflicting domain claims and
// stale-snapshot replays injected into a live overlay are refuted by the
// liveness layer's incarnation ordering and local authority — the view
// stays truthful, no domain changes hands, no election fires.
func TestAdversaryRefuted(t *testing.T) {
	g, hubs := ringedStars(3, 6)
	net := p2p.NewNetwork(sim.New(), g, 31)
	cfg := core.DefaultConfig()
	cfg.GossipPiggyback = true
	cfg.ProactiveElection = true
	sys, err := core.NewSystem(net, cfg)
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

	adv := NewAdversary(sys, p2p.NodeID(hubs[2]+1)) // a compromised spoke
	stale := adv.Snapshot()

	// Wave of forged obituaries against every summary peer, plus a domain
	// claim dragging a spoke of domain 0 into the adversary's cluster.
	for _, h := range hubs {
		adv.ForgeDeath(p2p.NodeID(h+2), p2p.NodeID(h))
	}
	adv.ClaimDomain(p2p.NodeID(hubs[0]+3), p2p.NodeID(hubs[0]+1), p2p.NodeID(hubs[2]))
	net.Settle()
	sys.GossipRound()
	net.Settle()

	view := net.Liveness()
	for _, h := range hubs {
		if view.StateOf(h) != liveness.Alive {
			t.Fatalf("forged obituary stuck: hub %d is %v", h, view.StateOf(h))
		}
		if sys.Peer(p2p.NodeID(h)).Role() != core.RoleSummaryPeer {
			t.Fatalf("hub %d lost its role to a forgery", h)
		}
	}
	if got := view.SPOf(hubs[0] + 1); got != hubs[0] {
		t.Fatalf("conflicting domain claim stuck: spoke claims %d, want %d", got, hubs[0])
	}
	if got := sys.Stats().Elections; got != 0 {
		t.Fatalf("%d elections fired off forged evidence, want 0", got)
	}

	// A real death, then a stale-snapshot replay claiming the node alive
	// at its old incarnation: nothing may regress.
	victim := p2p.NodeID(hubs[1] + 4)
	sys.Leave(victim, true)
	net.Settle()
	adv.Replay(p2p.NodeID(hubs[1]+2), stale)
	net.Settle()
	if got := view.StateOf(int(victim)); got != liveness.Dead {
		t.Fatalf("stale replay resurrected node %d: %v", victim, got)
	}
	if got := sys.Coverage(); got != 1 {
		t.Fatalf("coverage %v under adversarial gossip, want 1", got)
	}
}
