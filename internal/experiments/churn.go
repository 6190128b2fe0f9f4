package experiments

import (
	"fmt"
	"math/rand"

	"p2psum/internal/core"
	"p2psum/internal/p2p"
	"p2psum/internal/sim"
	"p2psum/internal/stats"
	"p2psum/internal/topology"
	"p2psum/internal/workload"
)

// The churn experiment: §4.3 under pressure. It replays internal/workload
// session traces — the paper's lognormal lifetimes, compressed by a churn
// rate factor — over a multi-domain overlay with the liveness layer active
// (piggybacked gossip plus explicitly scheduled gossip rounds, keeping the
// discrete-event run deterministic) and charts how Coverage and the
// cooperation lists' stale fraction degrade as sessions shorten. The
// full time series is returned as ChurnResult so the driver can persist it
// (BENCH_churn.json) and the perf trajectory captures scenario results.

// ChurnSample is one point of the coverage-over-time series.
type ChurnSample struct {
	Hours          float64 `json:"hours"`
	Coverage       float64 `json:"coverage"`
	OnlineFraction float64 `json:"online_fraction"`
	StaleFraction  float64 `json:"stale_fraction"`
}

// ChurnRateResult aggregates one churn rate's run.
type ChurnRateResult struct {
	// Rate compresses the Table 3 session lifetimes: rate 1 is the paper's
	// mean 3 h / median 1 h, rate 4 means sessions four times shorter.
	Rate float64 `json:"rate"`
	// Replayed-trace statistics (workload.Analyze over the session plan).
	Sessions         int     `json:"sessions"`
	MeanSessionSec   float64 `json:"mean_session_sec"`
	MedianSessionSec float64 `json:"median_session_sec"`
	UptimeFraction   float64 `json:"uptime_fraction"`
	// Outcome aggregates.
	MeanCoverage    float64 `json:"mean_coverage"`
	MinCoverage     float64 `json:"min_coverage"`
	MeanStale       float64 `json:"mean_stale_fraction"`
	Reconciliations int     `json:"reconciliations"`
	MaintenanceMsgs int64   `json:"maintenance_msgs"`
	GossipMsgs      int64   `json:"gossip_msgs"`
	// Byte volumes for the same traffic (encoded frame lengths): the delta
	// gossip work is judged on GossipBytes at equal GossipMsgs — same
	// exchanges, smaller tails. MaintenanceBytes also moves, because the
	// piggybacked tails ride push/reconcile payloads.
	MaintenanceBytes int64 `json:"maintenance_bytes"`
	GossipBytes      int64 `json:"gossip_bytes"`
	// Samples is the coverage/staleness-over-time series.
	Samples []ChurnSample `json:"samples"`
}

// ChurnResult is the machine-readable outcome of the churn experiment
// (serialized to BENCH_churn.json by cmd/experiments).
type ChurnResult struct {
	Peers             int     `json:"peers"`
	Domains           int     `json:"domains"`
	SimHours          float64 `json:"sim_hours"`
	Alpha             float64 `json:"alpha"`
	GossipIntervalSec float64 `json:"gossip_interval_sec"`
	Seed              int64   `json:"seed"`
	Machine
	Rates []ChurnRateResult `json:"rates"`
}

// churnGossipEvery is the virtual-second spacing of the scheduled gossip
// rounds (GossipRound; periodic timers would livelock the event engine's
// run-to-quiescence Settle).
const churnGossipEvery = 300.0

// churnSamples is the number of time-series points per rate.
const churnSamples = 24

// runChurnRate simulates one churn rate over n peers.
func runChurnRate(cfg Config, n, domains int, rate float64) (ChurnRateResult, error) {
	out := ChurnRateResult{Rate: rate}
	seed := cfg.Seed + int64(1000*rate)
	g, err := topology.BarabasiAlbert(n, 2, nil, rand.New(rand.NewSource(seed)))
	if err != nil {
		return out, err
	}
	engine := sim.New()
	net := p2p.NewNetwork(engine, g, seed)
	sysCfg := core.DefaultConfig()
	sysCfg.Alpha = cfg.Alphas[0]
	sysCfg.GossipPiggyback = true
	sys, err := core.NewSystem(net, sysCfg)
	if err != nil {
		return out, err
	}
	sys.ElectSummaryPeers(domains)
	if err := sys.Construct(); err != nil {
		return out, err
	}
	baseline := net.Counter().TotalOf(maintenanceTypes...)
	baselineBytes := net.Bytes().TotalOf(maintenanceTypes...)

	lifetimes, err := workload.NewLifetimeDist(3*3600/rate, 3600/rate)
	if err != nil {
		return out, err
	}
	horizon := sim.Hours(cfg.SimHours)
	churnRng := rand.New(rand.NewSource(seed + 1))
	sps := make(map[p2p.NodeID]bool)
	for _, sp := range sys.SummaryPeers() {
		sps[sp] = true
	}

	// Replay the session trace: every online interval of the plan becomes a
	// Join/Leave pair; the summary peers stay up (the paper keeps the
	// super-peers stable and studies client dynamicity).
	churn := workload.Churn{Lifetimes: lifetimes, OfflineFactor: 0.5}
	plan := churn.Plan(churnRng, n, horizon)
	st := workload.Analyze(plan, n, horizon)
	out.Sessions = st.Sessions
	out.MeanSessionSec = st.MeanSessionSec
	out.MedianSessionSec = st.MedianSessionSec
	out.UptimeFraction = st.UptimeFraction
	for _, s := range plan {
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

	// Local-summary modification pushes keep the freshness machinery under
	// load, as in the Figure 4-6 sweeps.
	var scheduleMod func(peer p2p.NodeID, at sim.Time)
	scheduleMod = func(peer p2p.NodeID, at sim.Time) {
		if at > horizon {
			return
		}
		engine.At(at, func() {
			sys.MarkModified(peer)
			scheduleMod(peer, engine.Now()+lifetimes.Draw(churnRng))
		})
	}
	for i := 0; i < n; i++ {
		if !sps[p2p.NodeID(i)] {
			scheduleMod(p2p.NodeID(i), lifetimes.Draw(churnRng))
		}
	}

	// Gossip rounds at fixed virtual times — deterministic by construction.
	for at := sim.Time(churnGossipEvery); at < horizon; at += sim.Time(churnGossipEvery) {
		engine.At(at, func() { sys.GossipRound() })
	}

	// Sample the health series.
	staleMean := func() float64 {
		var sum float64
		for _, sp := range sys.SummaryPeers() {
			sum += sys.Peer(sp).CooperationList().StaleFraction()
		}
		return sum / float64(len(sys.SummaryPeers()))
	}
	covStat, staleStat := stats.NewRunning(), stats.NewRunning()
	for i := 1; i <= churnSamples; i++ {
		at := sim.Time(float64(horizon) * float64(i) / churnSamples)
		engine.At(at, func() {
			s := ChurnSample{
				Hours:          float64(engine.Now()) / 3600,
				Coverage:       sys.Coverage(),
				OnlineFraction: float64(net.OnlineCount()) / float64(n),
				StaleFraction:  staleMean(),
			}
			covStat.Observe(s.Coverage)
			staleStat.Observe(s.StaleFraction)
			out.Samples = append(out.Samples, s)
		})
	}

	engine.RunUntil(horizon)

	out.MeanCoverage = covStat.Mean()
	out.MinCoverage = covStat.Min()
	out.MeanStale = staleStat.Mean()
	out.Reconciliations = sys.Stats().Reconciliations
	out.MaintenanceMsgs = net.Counter().TotalOf(maintenanceTypes...) - baseline
	out.GossipMsgs = net.Counter().Get(core.MsgGossip)
	out.MaintenanceBytes = net.Bytes().TotalOf(maintenanceTypes...) - baselineBytes
	out.GossipBytes = net.Bytes().Get(core.MsgGossip)
	return out, nil
}

// churnRates picks the lifetime-compression sweep.
func churnRates(cfg Config) []float64 {
	if cfg.SimHours <= 3 { // quick configuration
		return []float64{1, 4}
	}
	return []float64{0.5, 1, 2, 4, 8}
}

// ChurnExperiment sweeps the churn rate, one deterministic simulation per
// rate across cfg.Workers, and reports coverage/staleness vs rate plus the
// full per-rate time series.
func ChurnExperiment(cfg Config) (*stats.Table, *ChurnResult, error) {
	n := cfg.DomainSizes[len(cfg.DomainSizes)/2]
	domains := 8
	rates := churnRates(cfg)
	res := &ChurnResult{
		Peers:             n,
		Domains:           domains,
		SimHours:          cfg.SimHours,
		Alpha:             cfg.Alphas[0],
		GossipIntervalSec: churnGossipEvery,
		Seed:              cfg.Seed,
		Machine:           thisMachine(),
		Rates:             make([]ChurnRateResult, len(rates)),
	}
	err := forEach(cfg.Workers, len(rates), func(i int) error {
		var runErr error
		res.Rates[i], runErr = runChurnRate(cfg, n, domains, rates[i])
		return runErr
	})
	if err != nil {
		return nil, nil, err
	}

	meanCov := &stats.Series{Name: "mean coverage"}
	minCov := &stats.Series{Name: "min coverage"}
	stale := &stats.Series{Name: "mean stale frac"}
	perNode := &stats.Series{Name: "maint msg/node/h"}
	gossip := &stats.Series{Name: "gossip msg/node/h"}
	gossipKB := &stats.Series{Name: "gossip KB/node/h"}
	for _, r := range res.Rates {
		meanCov.Add(r.Rate, r.MeanCoverage)
		minCov.Add(r.Rate, r.MinCoverage)
		stale.Add(r.Rate, r.MeanStale)
		perNode.Add(r.Rate, float64(r.MaintenanceMsgs)/float64(n)/cfg.SimHours)
		gossip.Add(r.Rate, float64(r.GossipMsgs)/float64(n)/cfg.SimHours)
		gossipKB.Add(r.Rate, float64(r.GossipBytes)/1024/float64(n)/cfg.SimHours)
	}
	t := stats.NewTable(
		fmt.Sprintf("Churn: coverage and staleness vs session-lifetime compression (n=%d, %d domains)", n, domains),
		"churn rate", meanCov, minCov, stale, perNode, gossip, gossipKB)
	t.Decimal = 3
	for _, r := range res.Rates {
		t.AddNote("rate %g: %d sessions, mean %.0fs / median %.0fs, uptime %.0f%%, %d reconciliations",
			r.Rate, r.Sessions, r.MeanSessionSec, r.MedianSessionSec, 100*r.UptimeFraction, r.Reconciliations)
	}
	t.AddNote("liveness gossip every %.0f virtual s (scheduled rounds; piggyback on push/reconcile)", churnGossipEvery)
	t.AddNote("gossip tails are deltas (entries changed since the partner's acked version); full snapshots only on first contact and resyncs")
	return t, res, nil
}
