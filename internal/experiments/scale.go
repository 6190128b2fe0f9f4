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
	"p2psum/internal/stats"
	"p2psum/internal/topology"
)

// The scale experiment: does the paper's cost model survive production
// scale? One run constructs a 10k–100k-peer power-law overlay, elects a
// summary peer per ~500-peer domain, builds every domain and drives three
// network-wide modification/reconciliation waves — the §4.1+§4.2 workload
// — on the region-sharded event kernel at several region counts. Each
// point records wall-clock, memory and per-peer message cost, and a
// report fingerprint that must be bit-identical across region counts
// (the kernel's conservative windows are not allowed to buy speed with
// divergence). Runs are sequential and single-process so wall-clock
// differences measure the kernel, not scheduler contention; cfg.Workers
// is deliberately ignored.

// scaleReps is how many times every (peers, regions) point runs. One
// sample cannot carry a verdict — four sweeps of the same code read the
// 10k-peer 1-region point at 0.125–0.148 s — so the point reports the
// median with its min/max.
const scaleReps = 3

// ScaleRunResult is one (peers, regions) measurement.
type ScaleRunResult struct {
	Peers   int `json:"peers"`
	Domains int `json:"domains"`
	Regions int `json:"regions"`
	// WallSec is the end-to-end wall-clock of construct + waves (graph
	// generation and setup excluded): the median of scaleReps runs, with
	// the fastest and slowest beside it.
	WallSec    float64 `json:"wall_sec"`
	WallSecMin float64 `json:"wall_sec_min"`
	WallSecMax float64 `json:"wall_sec_max"`
	// Speedup is median WallSec(regions=1) / median WallSec at this
	// region count.
	Speedup float64 `json:"speedup"`
	// Events is the number of discrete events the kernel executed.
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
	// message/byte counters and coverage; equal hashes across region
	// counts prove the parallel kernel changed nothing observable.
	ReportHash string `json:"report_hash"`
	// Windows is the kernel's barrier-separated window count (see
	// sim.ShardedStats).
	Windows uint64 `json:"windows"`
	// Violations counts cross-region handoffs the kernel clamped to the
	// target's clock; zero on this workload (the hash identity would
	// catch the drift a clamp implies).
	Violations uint64 `json:"causality_violations"`
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

// runScalePoint measures one run of a (peers, regions) point over a
// pre-built graph.
func runScalePoint(cfg Config, g *topology.Graph, peers, regions int) (ScaleRunResult, error) {
	out := ScaleRunResult{Peers: peers, Domains: scaleDomains(peers), Regions: regions}
	net, err := p2p.NewShardedNetwork(g, cfg.Seed, regions)
	if err != nil {
		return out, err
	}
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
	// every wave pushes most domains past α and triggers their rings, so
	// domains reconcile concurrently across regions.
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

	out.Events = net.Sharded().Executed()
	out.Msgs = net.Counter().Total()
	out.MsgsPerPeer = float64(out.Msgs) / float64(peers)
	out.Bytes = net.Bytes().Total()
	out.Reconciliations = sys.Stats().Reconciliations
	out.ReportHash = scaleHash(net, sys)
	if ks, ok := net.KernelStats(); ok {
		out.Windows = ks.Windows
		out.Violations = ks.CausalityViolations
	}

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
func measureScalePoint(cfg Config, g *topology.Graph, peers, regions int) (ScaleRunResult, error) {
	var out ScaleRunResult
	walls := make([]float64, 0, scaleReps)
	for rep := 0; rep < scaleReps; rep++ {
		run, err := runScalePoint(cfg, g, peers, regions)
		if err != nil {
			return out, err
		}
		if rep == 0 {
			out = run
		} else if run.ReportHash != out.ReportHash {
			return out, fmt.Errorf("experiments: %d peers, %d regions: reports diverge between repeats (%s vs %s)",
				peers, regions, out.ReportHash[:12], run.ReportHash[:12])
		}
		walls = append(walls, run.WallSec)
	}
	sort.Float64s(walls)
	out.WallSecMin, out.WallSec, out.WallSecMax = walls[0], walls[scaleReps/2], walls[scaleReps-1]
	return out, nil
}

// ScaleExperiment sweeps overlay size × region count, verifying that
// every run reproduces the first region count's reports bit-for-bit, and
// reports wall-clock speedup, per-peer message cost and memory. Sizes
// run ascending so each size's first run records a meaningful RSS
// high-water mark.
func ScaleExperiment(cfg Config) (*stats.Table, *ScaleResult, error) {
	sizes := append([]int(nil), cfg.ScalePeers...)
	sort.Ints(sizes)
	regionCounts := cfg.ScaleRegions
	if len(sizes) == 0 || len(regionCounts) == 0 {
		return nil, nil, fmt.Errorf("experiments: empty scale sweep (%v peers × %v regions)", sizes, regionCounts)
	}
	res := &ScaleResult{Seed: cfg.Seed, Machine: thisMachine()}
	series := make([]*stats.Series, len(regionCounts))
	for i, r := range regionCounts {
		series[i] = &stats.Series{Name: fmt.Sprintf("@%dr", r)}
	}
	msgSeries := &stats.Series{Name: "msgs/peer"}
	var notes []string
	for _, peers := range sizes {
		g, err := topology.BarabasiAlbert(peers, 2, nil, rand.New(rand.NewSource(cfg.Seed+int64(peers))))
		if err != nil {
			return nil, nil, err
		}
		var base, run ScaleRunResult
		for i, regions := range regionCounts {
			if run, err = measureScalePoint(cfg, g, peers, regions); err != nil {
				return nil, nil, err
			}
			if i == 0 {
				base = run
			} else if run.ReportHash != base.ReportHash {
				return nil, nil, fmt.Errorf("experiments: %d peers: reports diverge between %d and %d regions (%s vs %s)",
					peers, base.Regions, regions, base.ReportHash[:12], run.ReportHash[:12])
			}
			run.Speedup = base.WallSec / run.WallSec
			series[i].Add(float64(peers), run.WallSec)
			res.Runs = append(res.Runs, run)
		}
		msgSeries.Add(float64(peers), run.MsgsPerPeer)
		note := fmt.Sprintf("%d peers / %d domains: %d events, %.1f msgs/peer, %d reconciliations, heap %.0f MB, rss %d MB",
			peers, run.Domains, run.Events, run.MsgsPerPeer, run.Reconciliations, run.HeapMB, run.MaxRSSKB/1024)
		if best := bestSpeedup(res.Runs, peers); best > 0 {
			note += fmt.Sprintf(", best multi-region speedup %.2fx", best)
		}
		notes = append(notes, note)
	}
	t := stats.NewTable(
		fmt.Sprintf("Scale: construct + 3 reconcile waves, regions %v, median wall-clock s of %d runs (reports bit-identical per size)", regionCounts, scaleReps),
		"peers", append(series, msgSeries)...)
	t.Decimal = 2
	for _, n := range notes {
		t.AddNote("%s", n)
	}
	t.AddNote("runs are sequential and single-process; rss is a process high-water mark (sizes sweep ascending)")
	return t, res, nil
}

// bestSpeedup returns the best speedup any multi-region run measured for
// a size — below 1 when every one lost to the base — or 0 when the sweep
// had no multi-region run.
func bestSpeedup(runs []ScaleRunResult, peers int) float64 {
	best := 0.0
	for _, r := range runs {
		if r.Peers == peers && r.Regions > 1 && r.Speedup > best {
			best = r.Speedup
		}
	}
	return best
}
