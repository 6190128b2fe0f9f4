package gateway

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2psum/internal/bk"
	"p2psum/internal/core"
	"p2psum/internal/p2p"
	"p2psum/internal/query"
	"p2psum/internal/saintetiq"
	"p2psum/internal/topology"
)

// The system-level invalidation contract: a reconciliation that installs a
// shard delta at the summary peer invalidates exactly the cached entries
// whose candidate shards were swapped — entries over untouched shards keep
// serving, on the channel transport and across real TCP links alike.

// star builds a hub-and-spokes graph on n nodes, hub 0.
func star(t *testing.T, n int) *topology.Graph {
	t.Helper()
	g := topology.NewGraph(n)
	for s := 1; s < n; s++ {
		if err := g.AddEdge(0, s, 0.01); err != nil {
			t.Fatal(err)
		}
	}
	g.Compact()
	return g
}

func dataCfg(alpha float64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Alpha = alpha
	cfg.DataLevel = true
	cfg.BK = bk.Medical()
	cfg.Shards = 4
	return cfg
}

// seedDiseaseTrees gives each node single-disease patient data: hub and
// the first half of the spokes carry anorexia, the rest malaria — so the
// two test queries resolve to disjoint candidate shards.
func seedDiseaseTrees(t *testing.T, set func(p2p.NodeID, *saintetiq.Tree), n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		disease := "anorexia"
		if i > n/2 {
			disease = "malaria"
		}
		ages := []float64{15 + float64(3*i), 20 + float64(2*i)}
		set(p2p.NodeID(i), diseaseTree(t, disease, ages, saintetiq.PeerID(i)))
	}
}

// checkShardDelta drives the shared assertion script: warm both entries,
// install a malaria-only delta via reconcile (the trigger closure), then
// require the anorexia entry to survive and the malaria entry to refresh.
func checkShardDelta(t *testing.T, g *Gateway, origin p2p.NodeID, reconcile func()) {
	t.Helper()
	c := g.Connect()
	defer c.Close()
	qa, qb := diseaseQuery("anorexia"), diseaseQuery("malaria")
	ask := func(q query.Query) bool {
		t.Helper()
		_, hit, err := c.Query(origin, q)
		if err != nil {
			t.Fatal(err)
		}
		return hit
	}
	if ask(qa) || ask(qb) {
		t.Fatal("cold cache hit")
	}
	if !ask(qa) || !ask(qb) {
		t.Fatal("warm cache missed")
	}

	reconcile()

	if s := g.Snapshot(); s.Installs == 0 {
		t.Fatal("reconciliation fired no install hook")
	}
	if !ask(qa) {
		t.Error("anorexia entry dropped by a malaria-only install (global flush?)")
	}
	if ask(qb) {
		t.Error("malaria entry served stale across a malaria install")
	}
	if !ask(qb) {
		t.Error("refreshed malaria entry missed")
	}
}

// channelSystem builds the n-node data-level star domain of the channel
// tests (hub 0 is the summary peer; seedDiseaseTrees data), constructs it
// and runs one warm-up ring: the construction-order store and a ring-built
// rebuild can differ structurally in shards whose *content* never changed
// (merge order moves leaf boundaries), so one no-change reconciliation
// makes the resident store ring-built and a later delta install swaps
// exactly the shard whose data moved.
func channelSystem(t *testing.T, n int) (*core.System, *p2p.ChannelTransport) {
	t.Helper()
	ct := p2p.NewChannelTransport(star(t, n), 31, p2p.ChannelConfig{})
	t.Cleanup(ct.Close)
	sys, err := core.NewSystem(ct, dataCfg(0.05))
	if err != nil {
		t.Fatal(err)
	}
	seedDiseaseTrees(t, sys.SetLocalTree, n)
	sys.AssignSummaryPeers([]p2p.NodeID{0})
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	ct.Settle()
	sys.MarkModified(1)
	ct.Settle()
	if sys.Stats().Reconciliations == 0 {
		t.Fatal("warm-up reconciliation did not run")
	}
	return sys, ct
}

// installMalaria makes the last (malaria) spoke of channelSystem's domain
// re-summarize new data; its push crosses α and the ring reconciliation
// installs a delta that only swaps malaria's shard.
func installMalaria(t *testing.T, sys *core.System, ct *p2p.ChannelTransport, n int) {
	t.Helper()
	before := sys.Stats().Reconciliations
	mod := p2p.NodeID(n - 1)
	sys.SetLocalTree(mod, diseaseTree(t, "malaria", []float64{22, 33, 44}, saintetiq.PeerID(mod)))
	sys.MarkModified(mod)
	ct.Settle()
	if sys.Stats().Reconciliations == before {
		t.Fatal("modification did not trigger a reconciliation")
	}
}

// TestInstallInvalidatesShardsChannel: the contract over the concurrent
// channel transport, gateway attached to the live system.
func TestInstallInvalidatesShardsChannel(t *testing.T) {
	const n = 9
	sys, ct := channelSystem(t, n)
	gw := NewForSystem(Config{Rate: 1e9}, sys, nil)
	checkShardDelta(t, gw, 3, func() { installMalaria(t, sys, ct, n) })
}

// TestSessionsAcrossInstallChannel: 50 concurrent sessions, each its own
// Connect(), fire a duplicate-heavy pool of 6 queries at the channel
// system, half of each session's share before and half after a
// malaria-only shard-delta install. Admission is provisioned, so every
// query is answered and none is shed; the pool is small, so hits
// outnumber misses; and the malaria entry a probe warmed before the
// install re-executes after it instead of serving stale.
func TestSessionsAcrossInstallChannel(t *testing.T) {
	const n, sessions, perSession = 9, 50, 20
	const origin = p2p.NodeID(3)
	sys, ct := channelSystem(t, n)
	gw := NewForSystem(Config{Rate: 1e9}, sys, nil)

	var pool []query.Query // anorexia first, malaria last
	for _, disease := range []string{"anorexia", "malaria"} {
		for _, attr := range []string{"age", "sex", "bmi"} {
			pool = append(pool, query.Query{
				Select: []string{attr},
				Where:  []query.Clause{{Attr: "disease", Labels: []string{disease}}},
			})
		}
	}
	var answered, hits atomic.Int64
	// wave runs every session concurrently for its next perSession/2
	// queries, drawn from the pool by a per-session seeded generator.
	wave := func(round int) {
		var wg sync.WaitGroup
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				c := gw.Connect()
				defer c.Close()
				rng := rand.New(rand.NewSource(int64(round*sessions + s)))
				for i := 0; i < perSession/2; i++ {
					ans, hit, err := c.Query(origin, pool[rng.Intn(len(pool))])
					if err != nil || ans == nil {
						t.Errorf("session %d: query %d: answer %v, err %v", s, i, ans, err)
						return
					}
					answered.Add(1)
					if hit {
						hits.Add(1)
					}
				}
			}(s)
		}
		wg.Wait()
	}

	wave(0)
	probe := gw.Connect()
	defer probe.Close()
	ask := func(q query.Query) bool {
		t.Helper()
		_, hit, err := probe.Query(origin, q)
		if err != nil {
			t.Fatal(err)
		}
		return hit
	}
	malaria := pool[len(pool)-1]
	ask(malaria)
	if !ask(malaria) {
		t.Fatal("warm malaria probe missed")
	}
	installMalaria(t, sys, ct, n)
	if ask(malaria) {
		t.Error("malaria entry served stale across a malaria install")
	}
	wave(1)

	st := gw.Snapshot()
	if got, want := answered.Load(), int64(sessions*perSession); got != want {
		t.Errorf("answered %d of %d session queries", got, want)
	}
	if st.Shed != 0 {
		t.Errorf("shed %d under a provisioned bucket", st.Shed)
	}
	if st.Hits <= st.Misses || 2*hits.Load() <= answered.Load() {
		t.Errorf("hits %d (sessions saw %d of %d) do not outnumber misses %d on a 6-query pool",
			st.Hits, hits.Load(), answered.Load(), st.Misses)
	}
	if st.Installs == 0 || st.Invalidated == 0 {
		t.Errorf("installs=%d invalidated=%d, want both nonzero", st.Installs, st.Invalidated)
	}
}

// TestInstallInvalidatesShardsTCP: the same contract with the domain split
// across two real processes on loopback TCP — the gateway runs in the
// summary peer's process, the modification happens in the other one.
func TestInstallInvalidatesShardsTCP(t *testing.T) {
	const n = 6
	g := star(t, n)
	mk := func(local []p2p.NodeID) (*p2p.TCPTransport, *core.System) {
		tr, err := p2p.NewTCPTransport(g, p2p.TCPConfig{Listen: "127.0.0.1:0", Local: local})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		cfg := dataCfg(0.1)
		cfg.ReconcileTimeout = 100000 // loopback does not lose frames
		sys, err := core.NewSystem(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr, sys
	}
	localA, localB := []p2p.NodeID{0, 1, 2}, []p2p.NodeID{3, 4, 5}
	trA, sysA := mk(localA)
	trB, sysB := mk(localB)
	hostsA, hostsB := map[p2p.NodeID]string{}, map[p2p.NodeID]string{}
	for _, id := range localB {
		hostsA[id] = trB.ListenAddr()
	}
	for _, id := range localA {
		hostsB[id] = trA.ListenAddr()
	}
	if err := trA.SetHosts(hostsA); err != nil {
		t.Fatal(err)
	}
	if err := trB.SetHosts(hostsB); err != nil {
		t.Fatal(err)
	}
	if err := trA.DialPeers(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := trB.DialPeers(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	settle := func() {
		trA.Settle()
		trB.Settle()
		trA.Settle()
	}

	// Nodes 0..3 carry anorexia, 4..5 malaria (n/2 == 3).
	seedDiseaseTrees(t, func(id p2p.NodeID, tr *saintetiq.Tree) {
		if int(id) < len(localA) {
			sysA.SetLocalTree(id, tr)
		} else {
			sysB.SetLocalTree(id, tr)
		}
	}, n)
	sysA.AssignSummaryPeers([]p2p.NodeID{0})
	sysB.AssignSummaryPeers([]p2p.NodeID{0})
	if err := sysA.Construct(); err != nil {
		t.Fatal(err)
	}
	if err := sysB.Construct(); err != nil {
		t.Fatal(err)
	}
	settle()
	// Warm-up ring (see the channel test): make the resident store
	// ring-built before keying cache entries on its generations.
	sysB.MarkModified(4)
	warmDeadline := time.Now().Add(15 * time.Second)
	for sysA.Stats().Reconciliations == 0 {
		if time.Now().After(warmDeadline) {
			t.Fatal("warm-up reconciliation did not run")
		}
		settle()
		time.Sleep(5 * time.Millisecond)
	}
	settle()

	// The serving edge lives in process A, where the summary peer is.
	gw := NewForSystem(Config{Rate: 1e9}, sysA, nil)
	checkShardDelta(t, gw, 1, func() {
		before := sysA.Stats().Reconciliations
		mod := p2p.NodeID(5) // malaria spoke hosted by process B
		sysB.SetLocalTree(mod, diseaseTree(t, "malaria", []float64{22, 33, 44}, saintetiq.PeerID(mod)))
		sysB.MarkModified(mod)
		deadline := time.Now().Add(15 * time.Second)
		for sysA.Stats().Reconciliations == before {
			if time.Now().After(deadline) {
				t.Fatal("no reconciliation reached the summary peer's process")
			}
			settle()
			time.Sleep(5 * time.Millisecond)
		}
		settle()
	})
}
