// Package experiments regenerates every table and figure of the paper's
// evaluation (§6.2): the Table 2 mapping walkthrough, the Figure 4 stale-
// answer accounting, the Figure 5 false-negative estimation, the Figure 6
// update cost, the Figure 7 query-cost comparison, the §6.1.1 storage
// model, and the ablations DESIGN.md calls out. Each driver returns a
// stats.Table whose rows mirror the corresponding plot.
package experiments

import (
	"fmt"
	"math/rand"
	"runtime"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/core"
	"p2psum/internal/costmodel"
	"p2psum/internal/data"
	"p2psum/internal/p2p"
	"p2psum/internal/routing"
	"p2psum/internal/sim"
	"p2psum/internal/stats"
	"p2psum/internal/topology"
	"p2psum/internal/workload"
)

// Config carries the Table 3 simulation parameters.
type Config struct {
	// DomainSizes sweeps the x axis of Figures 4–6.
	DomainSizes []int
	// NetworkSizes sweeps the x axis of Figure 7 (paper: 16–5000).
	NetworkSizes []int
	// Alphas is the freshness-threshold sweep (Table 3: 0.1–0.8).
	Alphas []float64
	// Queries is the workload size (Table 3: 200).
	Queries int
	// QueriesPerPoint bounds the routed queries per Figure 7 point.
	QueriesPerPoint int
	// HitFraction is the per-query match rate (Table 3: 10%).
	HitFraction float64
	// SimHours is the churn-simulation horizon for Figures 4–6.
	SimHours float64
	// GracefulProb is the probability a departing peer notifies its
	// summary peer (the rest fail silently, §4.3).
	GracefulProb float64
	// Seed drives all randomness.
	Seed int64
	// Workers bounds the number of concurrently simulated sweep points
	// (0 = one per CPU, 1 = sequential). Every point is seeded
	// independently, so any worker count yields bit-identical tables.
	Workers int
	// Shards selects the global-summary store layout of every simulated
	// summary peer (core.Config.Shards): 0 or 1 is the paper's single
	// tree, higher values shard the store. The Figure 4–6 accounting is
	// protocol-level and layout-invariant; the knob exists so data-level
	// sweeps and ablations run against the same layout the CLIs select.
	Shards int
	// Dispatchers caps the dispatcher-count sweep of the concurrency
	// experiment (0 = sweep up to one dispatcher per domain). The figure
	// sweeps run on the single-threaded event engine and ignore it.
	Dispatchers int
	// ScalePeers is the overlay-size sweep of the scale experiment
	// (construct + reconcile on the discrete-event engine).
	ScalePeers []int
	// GatewayClients is the client-count sweep of the gateway experiment
	// (concurrent serving-edge sessions per point).
	GatewayClients []int
}

// Default returns the paper's Table 3 parameters.
func Default() Config {
	return Config{
		DomainSizes:     []int{100, 250, 500, 1000, 2000},
		NetworkSizes:    []int{16, 64, 250, 500, 1000, 2000, 3500, 5000},
		Alphas:          []float64{0.1, 0.3, 0.5, 0.8},
		Queries:         200,
		QueriesPerPoint: 10,
		HitFraction:     0.10,
		SimHours:        12,
		GracefulProb:    0.8,
		Seed:            42,
		ScalePeers:      []int{10000, 50000, 100000},
		GatewayClients:  []int{100, 1000, 10000},
	}
}

// Quick returns a down-scaled configuration for unit tests and smoke runs.
func Quick() Config {
	return Config{
		DomainSizes:     []int{50, 100, 200},
		NetworkSizes:    []int{64, 250, 500},
		Alphas:          []float64{0.3, 0.8},
		Queries:         40,
		QueriesPerPoint: 3,
		HitFraction:     0.10,
		SimHours:        3,
		GracefulProb:    0.8,
		Seed:            42,
		ScalePeers:      []int{1000},
		GatewayClients:  []int{50, 200},
	}
}

// Machine records the box a BENCH_*.json file was measured on: a
// wall-clock or throughput figure means nothing without the core count
// that capped it. The result structs embed it, so its fields sit at the
// top level of each file.
type Machine struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// thisMachine describes the running process.
func thisMachine() Machine {
	return Machine{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// ParamsTable renders Table 3 (simulation parameters).
func ParamsTable(cfg Config) string {
	return fmt.Sprintf(`== Table 3: Simulation Parameters ==
local summary lifetime L     skewed distribution, mean=3h, median=1h
number of peers n            %v (domains), %v (networks)
number of queries q          %d
matching nodes/query hits    %.0f%%
freshness threshold alpha    %v
query rate                   1 query per node per 20 min
graceful departure prob      %.0f%%
simulated time               %.1f h
seed                         %d
`, cfg.DomainSizes, cfg.NetworkSizes, cfg.Queries, cfg.HitFraction*100,
		cfg.Alphas, cfg.GracefulProb*100, cfg.SimHours, cfg.Seed)
}

// MappingWalkthrough reproduces Tables 1 and 2: the Patient relation and
// its grid-cell mapping under the paper's Background Knowledge.
func MappingWalkthrough() (string, error) {
	rel := data.PaperPatients()
	mapper, err := cells.NewMapper(bk.PaperExample(), rel.Schema())
	if err != nil {
		return "", err
	}
	store := cells.NewStore(mapper)
	store.AddRelation(rel)
	return "== Table 1: Raw data ==\n" + rel.String() +
		"\n== Table 2: Grid-cells mapping ==\n" + store.String(), nil
}

// domainObservation aggregates one churn simulation of a single domain.
type domainObservation struct {
	staleAtQuery   *stats.Running // CL stale fraction sampled at query times (Fig 4 worst case)
	fnRealAtQuery  *stats.Running // real false-negative rate among true matches (Fig 5)
	maintenanceMsg int64          // push/localsum/reconcile/find/drop/release traffic
	reconcileMsg   int64          // ring transmissions alone
	perNodePerHour float64
	reconciles     int
	peers          int
	hours          float64
}

// logicalMsg recounts maintenance traffic with each reconciliation ring as
// a single propagated message, the paper's §4.2.2 accounting ("only one
// message is propagated among all partner peers").
func (o *domainObservation) logicalMsg() int64 {
	return o.maintenanceMsg - o.reconcileMsg + int64(o.reconciles)
}

// maintenanceTypes are the §4 message types charged to summary maintenance.
var maintenanceTypes = []string{
	core.MsgPush, core.MsgLocalsum, core.MsgReconcile,
	core.MsgFind, core.MsgDrop, core.MsgRelease,
}

// runDomain simulates one domain of n peers under churn for cfg.SimHours
// and samples accuracy at Poisson query arrivals.
func runDomain(cfg Config, n int, alpha float64, seed int64, mode routing.Mode, sysCfg core.Config) (*domainObservation, error) {
	g, err := topology.BarabasiAlbert(n, 2, nil, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	engine := sim.New()
	net := p2p.NewNetwork(engine, g, seed)
	sysCfg.Alpha = alpha
	sysCfg.Shards = cfg.Shards
	sys, err := core.NewSystem(net, sysCfg)
	if err != nil {
		return nil, err
	}
	sys.ElectSummaryPeers(1)
	if err := sys.Construct(); err != nil {
		return nil, err
	}
	sp := sys.SummaryPeers()[0]

	// Maintenance traffic is measured from here on (construction excluded).
	baseline := net.Counter().TotalOf(maintenanceTypes...)

	horizon := sim.Hours(cfg.SimHours)
	churnRng := rand.New(rand.NewSource(seed + 1))
	queryRng := rand.New(rand.NewSource(seed + 2))
	modRng := rand.New(rand.NewSource(seed + 3))
	mod := workload.PaperModification()

	// Schedule churn sessions for the clients (the summary peer stays).
	churn := workload.Churn{Lifetimes: workload.PaperLifetimes(), OfflineFactor: 0.5}
	for _, s := range churn.Plan(churnRng, n, horizon) {
		s := s
		if p2p.NodeID(s.Peer) == sp {
			continue
		}
		if s.Start > 0 {
			engine.At(s.Start, func() { sys.Join(p2p.NodeID(s.Peer)) })
		}
		if s.End < horizon {
			graceful := churnRng.Float64() < cfg.GracefulProb
			engine.At(s.End, func() { sys.Leave(p2p.NodeID(s.Peer), graceful) })
		}
	}

	// Local-summary modification pushes (§4.2.1): each partner's merged
	// description expires after a lifetime L drawn from the Table 3
	// distribution; on expiry the partner pushes v=1.
	modLifetimes := workload.PaperLifetimes()
	var scheduleMod func(peer p2p.NodeID, at sim.Time)
	scheduleMod = func(peer p2p.NodeID, at sim.Time) {
		if at > horizon {
			return
		}
		engine.At(at, func() {
			sys.MarkModified(peer) // no-op while offline
			scheduleMod(peer, engine.Now()+modLifetimes.Draw(churnRng))
		})
	}
	for i := 0; i < n; i++ {
		if p2p.NodeID(i) != sp {
			scheduleMod(p2p.NodeID(i), modLifetimes.Draw(churnRng))
		}
	}

	obs := &domainObservation{staleAtQuery: stats.NewRunning(), fnRealAtQuery: stats.NewRunning()}

	// Poisson query arrivals. The accuracy samples must cover the whole
	// horizon, so the cfg.Queries sampling queries arrive at rate
	// Queries/horizon (the full Table 3 per-node rate would burn the
	// sample budget in the first minutes of a long run; query traffic
	// itself is costed in Figure 7, not here).
	sampleRate := float64(cfg.Queries) / float64(horizon)
	var schedule func(at sim.Time)
	queries := 0
	schedule = func(at sim.Time) {
		if at > horizon || queries >= cfg.Queries {
			return
		}
		engine.At(at, func() {
			queries++
			sampleDomainAccuracy(sys, sp, cfg, queryRng, modRng, mod, mode, obs)
			schedule(at + workload.ExpInterarrival(queryRng, sampleRate))
		})
	}
	schedule(workload.ExpInterarrival(queryRng, sampleRate))

	engine.RunUntil(horizon)

	obs.maintenanceMsg = net.Counter().TotalOf(maintenanceTypes...) - baseline
	obs.reconcileMsg = net.Counter().Get(core.MsgReconcile)
	obs.perNodePerHour = float64(obs.maintenanceMsg) / float64(n) / cfg.SimHours
	obs.reconciles = sys.Stats().Reconciliations
	obs.peers = n
	obs.hours = cfg.SimHours
	return obs, nil
}

// sampleDomainAccuracy performs the paper's per-query accounting at the
// summary peer: the worst case counts every stale cooperation-list entry as
// a stale answer (Figure 4); the real case only counts stale entries whose
// database actually changed relative to the query, and only as false
// negatives among the true matches (Figure 5).
func sampleDomainAccuracy(sys *core.System, sp p2p.NodeID, cfg Config, queryRng, modRng *rand.Rand,
	mod workload.ModificationProcess, mode routing.Mode, obs *domainObservation) {

	cl := sys.Peer(sp).CooperationList()
	if cl.Len() == 0 {
		return
	}
	// Worst case (Fig 4): every v=1 partner is a stale answer, FP if
	// selected in PQ, FN otherwise — either way it is stale, so the rate
	// is the CL stale fraction at query time.
	obs.staleAtQuery.Observe(cl.StaleFraction())

	// Real case (Fig 5): draw the query's true matches among the online
	// domain members, and count as false negatives the stale-flagged
	// matches whose data actually changed (they are excluded from
	// V = PQ ∩ Pfresh although they hold answers).
	members := sys.DomainMembers(sp)
	if len(members) < 2 {
		return
	}
	k := int(cfg.HitFraction * float64(len(members)))
	if k < 1 {
		k = 1
	}
	matches := make([]p2p.NodeID, 0, k)
	perm := queryRng.Perm(len(members))
	for _, idx := range perm[:k] {
		matches = append(matches, members[idx])
	}
	fn := 0
	for _, m := range matches {
		if v, ok := cl.Get(m); ok && v != core.Fresh && mod.Changed(modRng) {
			fn++
		}
	}
	obs.fnRealAtQuery.Observe(float64(fn) / float64(k))
}

// domainJob is one (α × domain size) point of a sweep grid.
type domainJob struct {
	alpha float64
	n     int
}

// sweepDomains simulates every (α × size) grid point across the worker
// pool, returning observations in grid order (α-major).
func sweepDomains(cfg Config, alphas []float64, sizes []int, mode routing.Mode, sysCfg core.Config) ([]*domainObservation, error) {
	jobs := make([]domainJob, 0, len(alphas)*len(sizes))
	for _, alpha := range alphas {
		for _, n := range sizes {
			jobs = append(jobs, domainJob{alpha, n})
		}
	}
	obs := make([]*domainObservation, len(jobs))
	err := forEach(cfg.Workers, len(jobs), func(i int) error {
		var runErr error
		obs[i], runErr = runDomain(cfg, jobs[i].n, jobs[i].alpha, cfg.Seed+int64(jobs[i].n), mode, sysCfg)
		return runErr
	})
	if err != nil {
		return nil, err
	}
	return obs, nil
}

// Figure4 regenerates "stale answers vs domain size": one series per α,
// worst-case accounting.
func Figure4(cfg Config) (*stats.Table, error) {
	obs, err := sweepDomains(cfg, cfg.Alphas, cfg.DomainSizes, routing.Balanced, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	var series []*stats.Series
	for ai, alpha := range cfg.Alphas {
		s := &stats.Series{Name: fmt.Sprintf("alpha=%.1f", alpha)}
		for ni, n := range cfg.DomainSizes {
			s.Add(float64(n), 100*obs[ai*len(cfg.DomainSizes)+ni].staleAtQuery.Mean())
		}
		series = append(series, s)
	}
	t := stats.NewTable("Figure 4: stale answers (%) vs domain size (worst case)", "domain size", series...)
	t.AddNote("paper: ~11%% for n=500 at alpha=0.3; larger alpha => more staleness")
	return t, nil
}

// Figure5 regenerates "false negatives vs domain size" with the real-case
// estimation, plus the worst-case series for the paper's 4.5x comparison.
func Figure5(cfg Config) (*stats.Table, error) {
	real := &stats.Series{Name: "false negatives (real)"}
	worst := &stats.Series{Name: "stale answers (worst)"}
	const alpha = 0.3 // the paper's Figure 5 operating point
	obs, err := sweepDomains(cfg, []float64{alpha}, cfg.DomainSizes, routing.Precise, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	for ni, n := range cfg.DomainSizes {
		real.Add(float64(n), 100*obs[ni].fnRealAtQuery.Mean())
		worst.Add(float64(n), 100*obs[ni].staleAtQuery.Mean())
	}
	t := stats.NewTable("Figure 5: false negatives (%) vs domain size (alpha=0.3)", "domain size", real, worst)
	var ratio float64
	if len(real.Points) > 0 {
		var rw, rr float64
		for i := range real.Points {
			rw += worst.Points[i].Y
			rr += real.Points[i].Y
		}
		ratio = stats.Ratio(rw, rr)
	}
	t.AddNote("paper: <= 3%% for n < 2000; worst/real reduction ~4.5x (measured %.1fx)", ratio)
	return t, nil
}

// Figure6 regenerates "number of messages vs domain size" for two α values:
// total maintenance messages plus the per-node series showing flatness.
func Figure6(cfg Config) (*stats.Table, error) {
	alphas := []float64{0.3, 0.8}
	var series []*stats.Series
	perNode := make([]*stats.Series, len(alphas))
	logical := make([]*stats.Series, len(alphas))
	all, err := sweepDomains(cfg, alphas, cfg.DomainSizes, routing.Balanced, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	for i, alpha := range alphas {
		tot := &stats.Series{Name: fmt.Sprintf("total alpha=%.1f", alpha)}
		per := &stats.Series{Name: fmt.Sprintf("per-node/h a=%.1f", alpha)}
		log := &stats.Series{Name: fmt.Sprintf("logical a=%.1f", alpha)}
		for ni, n := range cfg.DomainSizes {
			obs := all[i*len(cfg.DomainSizes)+ni]
			tot.Add(float64(n), float64(obs.maintenanceMsg))
			per.Add(float64(n), obs.perNodePerHour)
			log.Add(float64(n), float64(obs.logicalMsg()))
		}
		series = append(series, tot)
		perNode[i] = per
		logical[i] = log
	}
	series = append(series, perNode...)
	series = append(series, logical...)
	t := stats.NewTable("Figure 6: update cost vs domain size", "domain size", series...)
	ratio := func(a, b *stats.Series) float64 {
		var sum, cnt float64
		for _, p := range a.Points {
			if y := b.YAt(p.X); y > 0 {
				sum += p.Y / y
				cnt++
			}
		}
		if cnt == 0 {
			return 0
		}
		return sum / cnt
	}
	t.AddNote("paper: per-node cost flat in domain size; alpha 0.8->0.3 costs ~1.2x")
	t.AddNote("measured: %.2fx counting every ring hop; %.2fx with the paper's one-message-per-reconciliation accounting",
		ratio(series[0], series[1]), ratio(logical[0], logical[1]))
	return t, nil
}

// figure7Point is one network-size measurement of the Figure 7 sweep.
type figure7Point struct {
	sq, fl, flFull, ce float64
	flRecall           float64
	model              float64
	hasModel           bool
}

// runFigure7Point measures summary querying and both baselines on one
// Barabási–Albert overlay of n peers.
func runFigure7Point(cfg Config, n int) (figure7Point, error) {
	var pt figure7Point
	g, err := topology.BarabasiAlbert(n, 2, nil, rand.New(rand.NewSource(cfg.Seed+int64(n))))
	if err != nil {
		return pt, err
	}
	engine := sim.New()
	net := p2p.NewNetwork(engine, g, cfg.Seed+int64(n))
	sys, err := core.NewSystem(net, core.DefaultConfig())
	if err != nil {
		return pt, err
	}
	// Ten domains: each provides ~10% of the relevant peers (§6.2.3).
	nSPs := 10
	if n < 100 {
		nSPs = 2
	}
	sys.ElectSummaryPeers(nSPs)
	if err := sys.Construct(); err != nil {
		return pt, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed + int64(n) + 7))
	router := routing.NewSQRouter(sys)
	var sqSum, flSum, flFullSum, ceSum, flRecall float64
	for q := 0; q < cfg.QueriesPerPoint; q++ {
		ms := workload.MatchSet(rng, n, cfg.HitFraction)
		oracle := &routing.Oracle{Current: make(map[p2p.NodeID]bool, len(ms))}
		for id := range ms {
			oracle.Current[p2p.NodeID(id)] = true
		}
		origin := p2p.NodeID(rng.Intn(n))
		required := len(ms)

		res, err := router.Route(origin, oracle, required)
		if err != nil {
			return pt, err
		}
		sqSum += float64(res.Messages)
		// Single TTL=3 broadcast ("we limit the flooding by a value 3
		// of TTL") and the variant that keeps expanding until it
		// matches SQ's stop condition (Ct results).
		single := routing.FloodQuery(net, origin, 3, oracle, -1)
		flSum += float64(single.Messages)
		flRecall += single.Accuracy.Recall()
		flFullSum += float64(routing.FloodQuery(net, origin, 3, oracle, required).Messages)
		c, err := costmodel.CentralizedQueryCost(n, cfg.HitFraction)
		if err != nil {
			return pt, err
		}
		ceSum += c
	}
	q := float64(cfg.QueriesPerPoint)
	pt.sq, pt.fl, pt.flFull, pt.ce = sqSum/q, flSum/q, flFullSum/q, ceSum/q
	pt.flRecall = flRecall / q
	if m, err := costmodel.PaperSQQueryCost(n, 0.11, g.AvgDegree(), 1); err == nil {
		pt.model, pt.hasModel = m, true
	}
	return pt, nil
}

// Figure7 regenerates "query cost vs number of peers": summary querying
// (SQ) against the centralized-index and pure-flooding baselines, all
// measured in exchanged messages on the same Barabási–Albert overlays.
// The network sizes are simulated concurrently across cfg.Workers.
func Figure7(cfg Config) (*stats.Table, error) {
	sq := &stats.Series{Name: "SQ (summaries)"}
	fl := &stats.Series{Name: "flood TTL=3"}
	flFull := &stats.Series{Name: "flood-to-Ct"}
	ce := &stats.Series{Name: "centralized"}
	model := &stats.Series{Name: "SQ model (eq.2)"}
	var lastFlRecall float64

	var sizes []int
	for _, n := range cfg.NetworkSizes {
		if n >= 16 {
			sizes = append(sizes, n)
		}
	}
	points := make([]figure7Point, len(sizes))
	err := forEach(cfg.Workers, len(sizes), func(i int) error {
		var runErr error
		points[i], runErr = runFigure7Point(cfg, sizes[i])
		return runErr
	})
	if err != nil {
		return nil, err
	}
	for i, n := range sizes {
		pt := points[i]
		sq.Add(float64(n), pt.sq)
		fl.Add(float64(n), pt.fl)
		flFull.Add(float64(n), pt.flFull)
		ce.Add(float64(n), pt.ce)
		lastFlRecall = pt.flRecall
		if pt.hasModel {
			model.Add(float64(n), pt.model)
		}
	}
	t := stats.NewTable("Figure 7: query cost (messages) vs number of peers", "peers", ce, sq, fl, flFull, model)
	t.Decimal = 1
	// Savings factor at the paper's headline point (n=2000 when swept).
	headline := 2000.0
	if len(sq.Points) > 0 {
		y := sq.YAt(headline)
		if y != y { // NaN: 2000 not in the sweep, use the largest point
			headline = sq.Points[len(sq.Points)-1].X
			y = sq.YAt(headline)
		}
		t.AddNote("paper: centralized < SQ < flooding; SQ ~3.5x cheaper than flooding at n=2000")
		t.AddNote("measured at n=%g: SQ vs flooding-to-Ct (same stop condition) saves %.1fx; a single TTL=3 round costs %.0f but finds only %.0f%% of the results at the largest n",
			headline, stats.Ratio(flFull.YAt(headline), y), fl.YAt(headline), 100*lastFlRecall)
	}
	return t, nil
}

// StorageTable regenerates the §6.1.1 storage model: Cm = k(B^{d+1}-1)/(B-1)
// for representative arities and depths, next to the measured size of a
// real encoded hierarchy.
func StorageTable(cfg Config) (*stats.Table, error) {
	model := &stats.Series{Name: "Cm model (KB)"}
	for _, d := range []int{1, 2, 3, 4} {
		c, err := costmodel.StorageCost(costmodel.PaperStorage(4, d))
		if err != nil {
			return nil, err
		}
		model.Add(float64(d), c/1024)
	}
	t := stats.NewTable("Storage model: hierarchy size vs depth (B=4, k=512B)", "depth", model)

	// Measure a real hierarchy for comparison.
	mapper, err := cells.NewMapper(bk.Medical(), data.PatientSchema())
	if err != nil {
		return nil, err
	}
	store := cells.NewStore(mapper)
	store.AddRelation(data.NewPatientGenerator(cfg.Seed, nil).Generate("r", 2000))
	tr := newTree()
	if err := tr.IncorporateStore(store, 1); err != nil {
		return nil, err
	}
	t.AddNote("measured: %d nodes, depth %d, avg branching %.1f, %.1f KB encoded",
		tr.NodeCount(), tr.Depth(), tr.AvgBranching(), float64(tr.EncodedSize())/1024)
	return t, nil
}

// CoverageExperiment tracks the Coverage of the virtual complete summary
// (§3.1, Definition 4): the fraction of online peers whose data is
// described by some domain's global summary, sampled over a churn horizon.
// The §4 protocols must keep coverage near 1 despite sessions churning.
func CoverageExperiment(cfg Config) (*stats.Table, error) {
	n := cfg.DomainSizes[len(cfg.DomainSizes)-1]
	g, err := topology.BarabasiAlbert(n, 2, nil, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	engine := sim.New()
	net := p2p.NewNetwork(engine, g, cfg.Seed)
	sys, err := core.NewSystem(net, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	sys.ElectSummaryPeers(8)
	if err := sys.Construct(); err != nil {
		return nil, err
	}

	horizon := sim.Hours(cfg.SimHours)
	churnRng := rand.New(rand.NewSource(cfg.Seed + 1))
	churn := workload.Churn{Lifetimes: workload.PaperLifetimes(), OfflineFactor: 0.5}
	sps := make(map[p2p.NodeID]bool)
	for _, sp := range sys.SummaryPeers() {
		sps[sp] = true
	}
	for _, s := range churn.Plan(churnRng, n, horizon) {
		s := s
		if sps[p2p.NodeID(s.Peer)] {
			continue
		}
		if s.Start > 0 {
			engine.At(s.Start, func() { sys.Join(p2p.NodeID(s.Peer)) })
		}
		if s.End < horizon {
			graceful := churnRng.Float64() < cfg.GracefulProb
			engine.At(s.End, func() { sys.Leave(p2p.NodeID(s.Peer), graceful) })
		}
	}

	coverage := &stats.Series{Name: "coverage"}
	online := &stats.Series{Name: "online fraction"}
	samples := 12
	for i := 1; i <= samples; i++ {
		at := sim.Time(float64(horizon) * float64(i) / float64(samples))
		engine.At(at, func() {
			h := float64(engine.Now()) / 3600
			coverage.Add(h, sys.Coverage())
			online.Add(h, float64(net.OnlineCount())/float64(n))
		})
	}
	engine.RunUntil(horizon)

	t := stats.NewTable("Coverage of the virtual complete summary under churn (Def. 4)", "hours", coverage, online)
	t.Decimal = 3
	var min float64 = 1
	for _, p := range coverage.Points {
		if p.Y < min {
			min = p.Y
		}
	}
	t.AddNote("minimum coverage over %d samples: %.3f — joins re-attach through neighbors and find walks (§4.3)", samples, min)
	return t, nil
}
