package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"

	"p2psum/internal/core"
	"p2psum/internal/p2p"
	"p2psum/internal/sim"
	"p2psum/internal/stats"
	"p2psum/internal/topology"
)

// The scale experiment: does the paper's cost model survive production
// scale? One run constructs a 10k–100k-peer power-law overlay, elects a
// summary peer per ~500-peer domain, builds every domain and drives three
// network-wide modification/reconciliation waves — the §4.1+§4.2 workload
// — on the discrete-event engine. Each point records wall-clock, memory
// and per-peer message cost, and a report fingerprint that must be
// bit-identical across the point's repeats. Runs are sequential and
// single-process so wall-clock measures the engine, not scheduler
// contention; cfg.Workers is deliberately ignored.

// scaleReps is how many times every size runs. One sample cannot carry a
// verdict — four sweeps of the same code read the 10k-peer point at
// 0.125–0.148 s — so the point reports the median with its min/max.
const scaleReps = 3

// ScaleRunResult is one overlay-size measurement.
type ScaleRunResult struct {
	Peers   int `json:"peers"`
	Domains int `json:"domains"`
	// WallSec is the end-to-end wall-clock of construct + waves (graph
	// generation and setup excluded): the median of scaleReps runs, with
	// the fastest and slowest beside it.
	WallSec    float64 `json:"wall_sec"`
	WallSecMin float64 `json:"wall_sec_min"`
	WallSecMax float64 `json:"wall_sec_max"`
	// Events is the number of discrete events the engine executed.
	Events uint64 `json:"events"`
	// Msgs/Bytes are total protocol traffic; MsgsPerPeer = Msgs/Peers.
	Msgs        int64   `json:"msgs"`
	MsgsPerPeer float64 `json:"msgs_per_peer"`
	Bytes       int64   `json:"bytes"`
	// Reconciliations across all domains and waves.
	Reconciliations int `json:"reconciliations"`
	// HeapMB is Go heap in use after a forced GC at run end, with the
	// overlay still live — the footprint of topology+protocol state.
	HeapMB float64 `json:"heap_mb"`
	// MaxRSSKB is getrusage's process high-water mark at run end. It is
	// monotonic across a sweep, so only the first run at each new
	// (ascending) size reflects that size's own footprint.
	MaxRSSKB int64 `json:"max_rss_kb"`
	// ReportHash fingerprints every domain report plus the per-type
	// message/byte counters and coverage; equal hashes across repeats
	// prove the run deterministic.
	ReportHash string `json:"report_hash"`
}

// ScaleResult is the machine-readable outcome (BENCH_scale.json).
type ScaleResult struct {
	Seed int64 `json:"seed"`
	Machine
	Runs []ScaleRunResult `json:"runs"`
}

// scaleDomains picks the domain count for an overlay size: one summary
// peer per ~500 peers (the paper's largest evaluated domain), at least 8.
func scaleDomains(peers int) int {
	d := peers / 500
	if d < 8 {
		d = 8
	}
	return d
}

// scaleHash fingerprints a settled system: domain reports in summary-peer
// order, per-type counters sorted by name, and coverage.
func scaleHash(net *p2p.Network, sys *core.System) string {
	h := sha256.New()
	for _, r := range sys.ReportAll() {
		fmt.Fprintln(h, r.String())
	}
	for _, c := range []*stats.Counter{net.Counter(), net.Bytes()} {
		names := c.Names()
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(h, "%s=%d\n", name, c.Get(name))
		}
	}
	fmt.Fprintf(h, "coverage=%.9f\n", sys.Coverage())
	return hex.EncodeToString(h.Sum(nil))
}

// runScalePoint measures one run of a size over a pre-built graph.
func runScalePoint(cfg Config, g *topology.Graph, peers int) (ScaleRunResult, error) {
	out := ScaleRunResult{Peers: peers, Domains: scaleDomains(peers)}
	engine := sim.New()
	net := p2p.NewNetwork(engine, g, cfg.Seed)
	sysCfg := core.DefaultConfig()
	sysCfg.Alpha = cfg.Alphas[0]
	sys, err := core.NewSystem(net, sysCfg)
	if err != nil {
		return out, err
	}

	start := time.Now()
	sys.ElectSummaryPeers(out.Domains)
	if err := sys.Construct(); err != nil {
		return out, err
	}
	net.Settle()
	sps := make(map[p2p.NodeID]bool, out.Domains)
	for _, sp := range sys.SummaryPeers() {
		sps[sp] = true
	}
	// Three deterministic modification waves over ~1/3 of the peers each:
	// every wave pushes most domains past α and triggers their rings.
	for wave := 0; wave < 3; wave++ {
		ids := make([]p2p.NodeID, 0, peers/3+1)
		for i := wave; i < peers; i += 3 {
			if !sps[p2p.NodeID(i)] {
				ids = append(ids, p2p.NodeID(i))
			}
		}
		sys.MarkModifiedAll(ids)
		net.Settle()
	}
	out.WallSec = time.Since(start).Seconds()

	out.Events = engine.Executed()
	out.Msgs = net.Counter().Total()
	out.MsgsPerPeer = float64(out.Msgs) / float64(peers)
	out.Bytes = net.Bytes().Total()
	out.Reconciliations = sys.Stats().Reconciliations
	out.ReportHash = scaleHash(net, sys)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.HeapMB = float64(ms.HeapInuse) / (1 << 20)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		out.MaxRSSKB = int64(ru.Maxrss)
	}
	return out, nil
}

// measureScalePoint runs a point scaleReps times and reports the first
// run's record (its RSS high-water mark is the one that still means
// something) with the median, fastest and slowest wall-clock.
func measureScalePoint(cfg Config, g *topology.Graph, peers int) (ScaleRunResult, error) {
	var out ScaleRunResult
	walls := make([]float64, 0, scaleReps)
	for rep := 0; rep < scaleReps; rep++ {
		run, err := runScalePoint(cfg, g, peers)
		if err != nil {
			return out, err
		}
		if rep == 0 {
			out = run
		} else if run.ReportHash != out.ReportHash {
			return out, fmt.Errorf("experiments: %d peers: reports diverge between repeats (%s vs %s)",
				peers, out.ReportHash[:12], run.ReportHash[:12])
		}
		walls = append(walls, run.WallSec)
	}
	sort.Float64s(walls)
	out.WallSecMin, out.WallSec, out.WallSecMax = walls[0], walls[scaleReps/2], walls[scaleReps-1]
	return out, nil
}

// ScaleExperiment sweeps overlay size, verifying that every repeat of a
// size reproduces its reports bit-for-bit, and reports wall-clock,
// per-peer message cost and memory. Sizes run ascending so each size's
// first run records a meaningful RSS high-water mark.
func ScaleExperiment(cfg Config) (*stats.Table, *ScaleResult, error) {
	sizes := append([]int(nil), cfg.ScalePeers...)
	sort.Ints(sizes)
	if len(sizes) == 0 {
		return nil, nil, fmt.Errorf("experiments: empty scale sweep")
	}
	res := &ScaleResult{Seed: cfg.Seed, Machine: thisMachine()}
	wallSeries := &stats.Series{Name: "wall s"}
	msgSeries := &stats.Series{Name: "msgs/peer"}
	var notes []string
	for _, peers := range sizes {
		g, err := topology.BarabasiAlbert(peers, 2, nil, rand.New(rand.NewSource(cfg.Seed+int64(peers))))
		if err != nil {
			return nil, nil, err
		}
		run, err := measureScalePoint(cfg, g, peers)
		if err != nil {
			return nil, nil, err
		}
		res.Runs = append(res.Runs, run)
		wallSeries.Add(float64(peers), run.WallSec)
		msgSeries.Add(float64(peers), run.MsgsPerPeer)
		notes = append(notes, fmt.Sprintf("%d peers / %d domains: %d events, %.1f msgs/peer, %d reconciliations, heap %.0f MB, rss %d MB",
			peers, run.Domains, run.Events, run.MsgsPerPeer, run.Reconciliations, run.HeapMB, run.MaxRSSKB/1024))
	}
	t := stats.NewTable(
		fmt.Sprintf("Scale: construct + 3 reconcile waves, median wall-clock s of %d runs (reports bit-identical per size)", scaleReps),
		"peers", wallSeries, msgSeries)
	t.Decimal = 2
	for _, n := range notes {
		t.AddNote("%s", n)
	}
	t.AddNote("runs are sequential and single-process; rss is a process high-water mark (sizes sweep ascending)")
	return t, res, nil
}
