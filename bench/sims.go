package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/core"
	"p2psum/internal/data"
	"p2psum/internal/p2p"
	"p2psum/internal/saintetiq"
	"p2psum/internal/sim"
	"p2psum/internal/stats"
	"p2psum/internal/topology"
	"p2psum/internal/workload"
)

// The three simulation workloads. Each runs on the sequential sim.Engine +
// p2p.Network, so it is single-threaded and seed-deterministic: message and
// byte totals, coverage and the report hash repeat exactly.

// simState is a freshly set-up protocol stack.
type simState struct {
	graph  *topology.Graph
	engine *sim.Engine
	net    *p2p.Network
	tr     p2p.Transport   // net, or its tracing decorator
	tt     *traceTransport // nil when untraced
	sys    *core.System
	sps    map[p2p.NodeID]bool
	graphS float64 // seconds spent generating the graph
}

func newSimState(e *env, peers int, cfg core.Config) (*simState, error) {
	t0 := time.Now()
	g, err := topology.BarabasiAlbert(peers, 2, nil, rand.New(rand.NewSource(e.seed)))
	if err != nil {
		return nil, err
	}
	st := &simState{graph: g, graphS: time.Since(t0).Seconds(), engine: sim.New()}
	st.net = p2p.NewNetwork(st.engine, g, e.seed)
	st.tr = st.net
	if e.rec != nil {
		st.tt = &traceTransport{inner: st.net, rec: e.rec}
		st.tr = st.tt
	}
	st.sys, err = core.NewSystem(st.tr, cfg)
	return st, err
}

// construct runs phase A (§4.1) and gates on full coverage.
func (st *simState) construct(e *env, it *iteration, domains int) error {
	e.rec.begin(spConstruct)
	st.sys.ElectSummaryPeers(domains)
	err := st.sys.Construct()
	st.tr.Settle()
	e.rec.end()
	if err != nil {
		return err
	}
	st.sps = make(map[p2p.NodeID]bool, domains)
	for _, sp := range st.sys.SummaryPeers() {
		st.sps[sp] = true
	}
	it.check(st.sys.Coverage() == 1, "coverage %.6f after Construct, want 1", st.sys.Coverage())
	return nil
}

// clients returns every offset+k*stride node that is not a summary peer.
func (st *simState) clients(offset, stride int) []p2p.NodeID {
	var ids []p2p.NodeID
	for i := offset; i < st.net.Len(); i += stride {
		if !st.sps[p2p.NodeID(i)] {
			ids = append(ids, p2p.NodeID(i))
		}
	}
	return ids
}

// finish fills the iteration's protocol totals, reconciliation outcome and
// determinism fingerprint from the settled system.
func (st *simState) finish(it *iteration) {
	it.peers = st.net.Len()
	it.msgs = st.net.Counter().Total()
	it.bytes = st.net.Bytes().Total()
	s := st.sys.Stats()
	it.attempted += s.Reconciliations + s.ReconcileAborts
	it.failed += s.ReconcileAborts
	if s.ReconcileAborts > 0 {
		it.notes = append(it.notes, fmt.Sprintf("%d reconciliations aborted", s.ReconcileAborts))
	}
	it.layer["sim.events"] = float64(st.engine.Executed())
	it.layer["p2p.bytes"] = float64(it.bytes)
	it.layer["core.reconciliations"] = float64(s.Reconciliations)
	it.layer["core.reconcile_retransmits"] = float64(s.ReconcileRetransmits)
	it.layer["core.reconcile_aborts"] = float64(s.ReconcileAborts)
	it.layer["liveness.gossip_msgs"] = float64(st.net.Counter().Get(core.MsgGossip))
	it.layer["liveness.gossip_bytes"] = float64(st.net.Bytes().Get(core.MsgGossip))
	it.layer["topology.graph_build_s"] = st.graphS
	it.hash = st.hash()
	if it.tt = st.tt; it.tt != nil {
		it.layer["topology.ball_nodes"] = float64(it.tt.ballNodes)
	}
}

// hash fingerprints everything a run lets an observer see: the domain
// reports, the per-type message and byte counters, and coverage.
func (st *simState) hash() string {
	h := sha256.New()
	for _, r := range st.sys.ReportAll() {
		fmt.Fprintln(h, r.String())
	}
	for _, c := range []*stats.Counter{st.net.Counter(), st.net.Bytes()} {
		names := c.Names()
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(h, "%s=%d\n", name, c.Get(name))
		}
	}
	fmt.Fprintf(h, "coverage=%.9f\n", st.sys.Coverage())
	return hex.EncodeToString(h.Sum(nil))
}

// timeOp runs fn and appends its duration, in microseconds, to the
// iteration's operation sample.
func (it *iteration) timeOp(fn func()) {
	t0 := time.Now()
	fn()
	it.ops = append(it.ops, float64(time.Since(t0))/1e3)
}

func runConstructReconcile(e *env) (*iteration, error) {
	it := newIteration()
	t0 := time.Now()
	cfg := core.DefaultConfig()
	cfg.Alpha = alpha
	st, err := newSimState(e, e.sz.crPeers, cfg)
	if err != nil {
		return nil, err
	}
	it.setup = time.Since(t0)

	start := time.Now()
	if err := st.construct(e, it, e.sz.crDomains); err != nil {
		return nil, err
	}
	for w := 0; w < e.sz.crWaves; w++ {
		ids := st.clients(w%3, 3)
		it.timeOp(func() {
			e.rec.begin(spWave)
			st.sys.MarkModifiedAll(ids)
			st.tr.Settle()
			e.rec.end()
		})
	}
	it.wall = time.Since(start)
	st.finish(it)
	it.probe = func(m map[string]float64) { probeKernel(m, e.sz); probeFrames(m, e.sz, it.tt) }
	return it, nil
}

// churnGossipEvery is the virtual-second spacing of the scheduled gossip
// rounds, and the unit of op_p50_us on churn_gossip: the host time one
// such interval of virtual time costs.
const churnGossipEvery = 300.0

// churnSamples is the number of coverage/staleness samples per run.
const churnSamples = 24

func runChurnGossip(e *env) (*iteration, error) {
	it := newIteration()
	n := e.sz.chPeers
	t0 := time.Now()
	cfg := core.DefaultConfig()
	cfg.Alpha = alpha
	cfg.GossipPiggyback = true
	st, err := newSimState(e, n, cfg)
	if err != nil {
		return nil, err
	}
	// Session lifetimes are the paper's (mean 3 h, median 1 h) compressed
	// four times, so the virtual hours of a run hold several sessions per
	// peer.
	const rate = 4
	lifetimes, err := workload.NewLifetimeDist(3*3600/rate, 3600/rate)
	if err != nil {
		return nil, err
	}
	horizon := sim.Hours(e.sz.chHours)
	rng := rand.New(rand.NewSource(e.seed + 1))
	churn := workload.Churn{Lifetimes: lifetimes, OfflineFactor: 0.5}
	plan := churn.Plan(rng, n, horizon)
	it.setup = time.Since(t0)

	start := time.Now()
	if err := st.construct(e, it, e.sz.chDomains); err != nil {
		return nil, err
	}
	sys, engine, rec := st.sys, st.engine, e.rec
	// Every online interval of the plan becomes a Join/Leave pair; the
	// summary peers stay up, as in the paper's evaluation.
	for _, s := range plan {
		peer := p2p.NodeID(s.Peer)
		if st.sps[peer] {
			continue
		}
		if s.Start > 0 {
			engine.At(s.Start, func() { rec.begin(spJoin); sys.Join(peer); rec.end() })
		}
		if s.End < horizon {
			graceful := rng.Float64() < 0.5
			engine.At(s.End, func() { rec.begin(spLeave); sys.Leave(peer, graceful); rec.end() })
		}
	}
	var scheduleMod func(peer p2p.NodeID, at sim.Time)
	scheduleMod = func(peer p2p.NodeID, at sim.Time) {
		if at > horizon {
			return
		}
		engine.At(at, func() {
			rec.begin(spModify)
			sys.MarkModified(peer)
			rec.end()
			scheduleMod(peer, engine.Now()+lifetimes.Draw(rng))
		})
	}
	for i := 0; i < n; i++ {
		if !st.sps[p2p.NodeID(i)] {
			scheduleMod(p2p.NodeID(i), lifetimes.Draw(rng))
		}
	}
	for at := sim.Time(churnGossipEvery); at < horizon; at += churnGossipEvery {
		engine.At(at, func() { rec.begin(spGossipRound); sys.GossipRound(); rec.end() })
	}
	var coverage, stale []float64
	for i := 1; i <= churnSamples; i++ {
		engine.At(sim.Time(float64(horizon)*float64(i)/churnSamples), func() {
			rec.begin(spSample)
			var sum float64
			for _, sp := range sys.SummaryPeers() {
				sum += sys.Peer(sp).CooperationList().StaleFraction()
			}
			coverage = append(coverage, sys.Coverage())
			stale = append(stale, sum/float64(len(sys.SummaryPeers())))
			rec.end()
		})
	}
	for at := sim.Time(churnGossipEvery); at <= horizon; at += churnGossipEvery {
		it.timeOp(func() {
			rec.begin(spRun)
			engine.RunUntil(at)
			rec.end()
		})
	}
	it.wall = time.Since(start)
	st.finish(it)
	it.layer["core.mean_coverage"] = mean(coverage)
	it.layer["core.mean_stale_fraction"] = mean(stale)
	it.check(len(coverage) == churnSamples, "%d coverage samples, want %d", len(coverage), churnSamples)
	view := st.net.Liveness()
	it.probe = func(m map[string]float64) {
		probeKernel(m, e.sz)
		probeFrames(m, e.sz, it.tt)
		probeLiveness(m, e.sz, view)
	}
	return it, nil
}

func runDataReconcile(e *env) (*iteration, error) {
	it := newIteration()
	n, rows := e.sz.drPeers, e.sz.drRows
	t0 := time.Now()
	b := bk.Medical()
	cfg := core.DefaultConfig()
	cfg.Alpha = alpha
	cfg.DataLevel = true
	cfg.BK = b
	cfg.Shards = 4
	st, err := newSimState(e, n, cfg)
	if err != nil {
		return nil, err
	}
	mapper, err := cells.NewMapper(b, data.PatientSchema())
	if err != nil {
		return nil, err
	}
	// summarise builds a peer's local summary over a fresh generated
	// relation; generation 0 is the initial data, wave w uses w+1.
	var records int64
	summarise := func(rec *recorder, peer, generation int) error {
		seed := e.seed*1_000_003 + int64(generation*n+peer)
		rel := data.NewPatientGenerator(seed, nil).Generate("patients", rows)
		cs := cells.NewStore(mapper)
		rec.begin(spCellsMap)
		cs.AddRelation(rel)
		rec.end()
		tr := saintetiq.New(b, cfg.TreeCfg)
		rec.begin(spIncorporate)
		err := tr.IncorporateStore(cs, saintetiq.PeerID(peer))
		rec.end()
		st.sys.SetLocalTree(p2p.NodeID(peer), tr)
		records += int64(rows)
		return err
	}
	for i := 0; i < n; i++ {
		if err := summarise(nil, i, 0); err != nil {
			return nil, err
		}
	}
	it.setup = time.Since(t0)

	// Count the leaves every ring merges (each merged partner's local
	// summary plus the summary peer's own), for the ledger's estimate of
	// the merge work hidden inside the reconcile handlers.
	leavesOf := func(id p2p.NodeID) float64 { return float64(st.sys.Peer(id).LocalTree().LeafCount()) }
	st.sys.OnReconcile = func(sp p2p.NodeID, merged []p2p.NodeID) {
		it.layer["saintetiq.merged_leaves"] += leavesOf(sp)
		for _, id := range merged {
			it.layer["saintetiq.merged_leaves"] += leavesOf(id)
		}
	}
	records = 0
	start := time.Now()
	if err := st.construct(e, it, e.sz.drDomains); err != nil {
		return nil, err
	}
	for _, id := range st.clients(0, 1) {
		it.layer["saintetiq.merged_leaves"] += leavesOf(id) // the construction-time localsum merges
	}
	for w := 0; w < e.sz.drWaves; w++ {
		ids := st.clients(w%3, 3)
		var werr error
		it.timeOp(func() {
			e.rec.begin(spWave)
			for _, id := range ids {
				if err := summarise(e.rec, int(id), w+1); err != nil {
					werr = err
				}
			}
			st.sys.MarkModifiedAll(ids)
			st.tr.Settle()
			e.rec.end()
		})
		if werr != nil {
			return nil, werr
		}
	}
	// A last wave marks every client, so every domain ends on a ring that
	// merged every member's current summary. It is part of wall_s but not
	// an operation sample: it is three times the size of the others.
	e.rec.begin(spWave)
	st.sys.MarkModifiedAll(st.clients(0, 1))
	st.tr.Settle()
	e.rec.end()
	it.wall = time.Since(start)
	st.finish(it)
	it.layer["cells.records"] = float64(records)
	it.layer["p2p.tree_bytes"] = float64(st.net.Bytes().TotalOf(core.MsgLocalsum, core.MsgReconcile))

	// Gate: each domain's store describes exactly the cells of a fresh
	// merge of its online members' local summaries.
	var leaves, nodes int
	var global *saintetiq.Tree
	var locals []*saintetiq.Tree
	for _, sp := range st.sys.SummaryPeers() {
		fresh := saintetiq.New(b, cfg.TreeCfg)
		for _, id := range st.sys.DomainMembers(sp) {
			local := st.sys.Peer(id).LocalTree()
			if err := fresh.Merge(local); err != nil {
				return nil, err
			}
			locals = append(locals, local)
		}
		global = st.sys.Peer(sp).GlobalSummary()
		it.check(global.LeavesEqual(fresh), "domain %d: store differs from a fresh merge of its members", sp)
		leaves += global.LeafCount()
		nodes += global.NodeCount()
	}
	it.layer["saintetiq.global_leaves"] = float64(leaves)
	it.layer["saintetiq.global_nodes"] = float64(nodes)
	it.probe = func(m map[string]float64) {
		probeKernel(m, e.sz)
		probeFrames(m, e.sz, it.tt)
		probeSummaries(m, e.sz, b, cfg, global, locals)
	}
	return it, nil
}
