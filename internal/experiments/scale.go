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
// — on the region-sharded event kernel at several region counts. Each
// point records wall-clock, memory and per-peer message cost, and a
// report fingerprint that must be bit-identical across region counts
// (the kernel's conservative windows are not allowed to buy speed with
// divergence). Runs are sequential and single-process so wall-clock
// differences measure the kernel, not scheduler contention; cfg.Workers
// is deliberately ignored.

// ScaleRunResult is one (peers, regions, mode) measurement.
type ScaleRunResult struct {
	Peers   int `json:"peers"`
	Domains int `json:"domains"`
	Regions int `json:"regions"`
	// Mode is the kernel configuration: "fixed" (conservative global
	// lookahead), "dynamic" (per-region EOT/EIT window bounds) or "spec"
	// (dynamic windows plus frontier-proven speculative overrun). All
	// modes must reproduce the same ReportHash.
	Mode string `json:"mode"`
	// WallSec is the end-to-end wall-clock of construct + waves
	// (graph generation and setup excluded).
	WallSec float64 `json:"wall_sec"`
	// Speedup is WallSec(regions=1) / WallSec at this region count.
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
	// counts and kernel modes prove the parallel kernel changed nothing
	// observable.
	ReportHash string `json:"report_hash"`
	// Kernel counters (see sim.ShardedStats): barrier-separated windows,
	// windows the dynamic planner extended past the fixed bound, and
	// events committed past a committed window end by the overrun proof.
	Windows           uint64 `json:"windows"`
	DynamicExtensions uint64 `json:"dynamic_extensions"`
	SpecCommitted     uint64 `json:"spec_committed"`
	// Violations counts cross-region handoffs the kernel clamped to the
	// target's clock; zero in every mode on this workload (the hash
	// identity would catch the drift a clamp implies).
	Violations uint64 `json:"causality_violations"`
}

// ScaleResult is the machine-readable outcome (BENCH_scale.json).
type ScaleResult struct {
	Seed int64 `json:"seed"`
	// The machine the sweep ran on: a multi-region wall-clock means
	// nothing without the core count that capped it.
	NumCPU     int              `json:"num_cpu"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	GoVersion  string           `json:"go_version"`
	Runs       []ScaleRunResult `json:"runs"`
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

// scaleMode is one kernel configuration of the mode sweep.
type scaleMode struct {
	name      string
	window    sim.WindowMode
	speculate bool
}

// scaleModes are the kernel configurations compared at every region
// count above one: the PR 7 fixed conservative windows, dynamic EOT/EIT
// window bounds, and dynamic windows plus frontier-proven speculative
// overrun. With a single region the kernel is sequential and the modes
// coincide, so only "fixed" runs there.
var scaleModes = []scaleMode{
	{name: "fixed", window: sim.WindowFixed},
	{name: "dynamic", window: sim.WindowDynamic},
	{name: "spec", window: sim.WindowDynamic, speculate: true},
}

// runScalePoint measures one (peers, regions, mode) run over a pre-built
// graph.
func runScalePoint(cfg Config, g *topology.Graph, peers, regions int, mode scaleMode) (ScaleRunResult, error) {
	out := ScaleRunResult{Peers: peers, Domains: scaleDomains(peers), Regions: regions, Mode: mode.name}
	net, err := p2p.NewShardedNetwork(g, cfg.Seed, regions)
	if err != nil {
		return out, err
	}
	net.SetWindowMode(mode.window)
	net.SetSpeculation(mode.speculate)
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
		out.DynamicExtensions = ks.DynamicExtensions
		out.SpecCommitted = ks.SpecCommitted
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

// ScaleExperiment sweeps overlay size × region count × kernel mode,
// verifying that every run reproduces the single-region reports
// bit-for-bit, and reports wall-clock speedup, per-peer message cost
// and memory. Sizes run ascending so each size's first run records a
// meaningful RSS high-water mark.
func ScaleExperiment(cfg Config) (*stats.Table, *ScaleResult, error) {
	sizes := append([]int(nil), cfg.ScalePeers...)
	sort.Ints(sizes)
	regionCounts := cfg.ScaleRegions
	if len(sizes) == 0 || len(regionCounts) == 0 {
		return nil, nil, fmt.Errorf("experiments: empty scale sweep (%v peers × %v regions)", sizes, regionCounts)
	}
	// One wall-clock series per (region count, kernel mode) column; a
	// single region runs the sequential degenerate kernel where the modes
	// coincide, so it gets one column.
	modesFor := func(regions int) []scaleMode {
		if regions <= 1 {
			return scaleModes[:1]
		}
		return scaleModes
	}
	res := &ScaleResult{Seed: cfg.Seed, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	var series []*stats.Series
	colOf := make(map[string]*stats.Series)
	for _, r := range regionCounts {
		for _, m := range modesFor(r) {
			name := fmt.Sprintf("@%dr %s", r, m.name)
			if r <= 1 {
				name = fmt.Sprintf("@%dr", r)
			}
			s := &stats.Series{Name: name}
			series = append(series, s)
			colOf[fmt.Sprintf("%d/%s", r, m.name)] = s
		}
	}
	msgSeries := &stats.Series{Name: "msgs/peer"}
	var notes []string
	for _, peers := range sizes {
		g, err := topology.BarabasiAlbert(peers, 2, nil, rand.New(rand.NewSource(cfg.Seed+int64(peers))))
		if err != nil {
			return nil, nil, err
		}
		var base ScaleRunResult
		first := true
		for _, regions := range regionCounts {
			for _, mode := range modesFor(regions) {
				run, err := runScalePoint(cfg, g, peers, regions, mode)
				if err != nil {
					return nil, nil, err
				}
				if first {
					base = run
					first = false
				} else if run.ReportHash != base.ReportHash {
					return nil, nil, fmt.Errorf("experiments: %d peers: reports diverge between %d regions/%s and %d regions/%s (%s vs %s)",
						peers, base.Regions, base.Mode, regions, mode.name, base.ReportHash[:12], run.ReportHash[:12])
				}
				if base.WallSec > 0 {
					run.Speedup = base.WallSec / run.WallSec
				}
				colOf[fmt.Sprintf("%d/%s", regions, mode.name)].Add(float64(peers), run.WallSec)
				res.Runs = append(res.Runs, run)
				last := regions == regionCounts[len(regionCounts)-1] &&
					mode.name == modesFor(regions)[len(modesFor(regions))-1].name
				if last {
					msgSeries.Add(float64(peers), run.MsgsPerPeer)
					notes = append(notes, fmt.Sprintf(
						"%d peers / %d domains: %d events, %.1f msgs/peer, %d reconciliations, heap %.0f MB, rss %d MB, best speedup %.2fx",
						peers, run.Domains, run.Events, run.MsgsPerPeer, run.Reconciliations,
						run.HeapMB, run.MaxRSSKB/1024, bestSpeedup(res.Runs, peers)))
					notes = append(notes, fmt.Sprintf(
						"%d peers @%dr kernel: fixed %d windows; dynamic extended %d of %d; spec committed %d past-window events in %d windows",
						peers, regions,
						windowsOf(res.Runs, peers, regions, "fixed"),
						dynExtOf(res.Runs, peers, regions), windowsOf(res.Runs, peers, regions, "dynamic"),
						run.SpecCommitted, run.Windows))
				}
			}
		}
	}
	t := stats.NewTable(
		fmt.Sprintf("Scale: construct + 3 reconcile waves, regions %v x {fixed,dynamic,spec} windows (reports bit-identical per size)", regionCounts),
		"peers", append(series, msgSeries)...)
	t.Decimal = 2
	for _, n := range notes {
		t.AddNote("%s", n)
	}
	t.AddNote("runs are sequential and single-process; rss is a process high-water mark (sizes sweep ascending)")
	return t, res, nil
}

// windowsOf returns the window count of the (peers, regions, mode) run.
func windowsOf(runs []ScaleRunResult, peers, regions int, mode string) uint64 {
	for _, r := range runs {
		if r.Peers == peers && r.Regions == regions && r.Mode == mode {
			return r.Windows
		}
	}
	return 0
}

// dynExtOf returns the dynamic-extension count of the (peers, regions,
// "dynamic") run.
func dynExtOf(runs []ScaleRunResult, peers, regions int) uint64 {
	for _, r := range runs {
		if r.Peers == peers && r.Regions == regions && r.Mode == "dynamic" {
			return r.DynamicExtensions
		}
	}
	return 0
}

// bestSpeedup returns the best measured speedup for a size.
func bestSpeedup(runs []ScaleRunResult, peers int) float64 {
	best := 1.0
	for _, r := range runs {
		if r.Peers == peers && r.Speedup > best {
			best = r.Speedup
		}
	}
	return best
}
