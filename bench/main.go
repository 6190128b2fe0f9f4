// Command bench is the repository's one benchmark: five named workloads,
// seven end-to-end metrics with fixed regression bounds, and a traced run
// per workload that splits the measured wall-clock across the layers
// (topology, sim, p2p, wire, core, liveness, cells, saintetiq,
// summarystore, query/routing, gateway). It measures the program from
// outside: nothing under internal/ carries a flag, hook or counter for it.
//
//	bash bench/run.sh --workload serve_zipf --seed 42 --seconds 10 --trace 0
//	bash bench/run.sh                 # every workload, untraced then traced
//	bash bench/run.sh -repeat 2       # run-to-run spread against the bounds
//	bash bench/run.sh -smoke          # tiny sizes, same code paths
//
// See README.md in this directory for the workloads, the metrics and how
// to read the ledger and the trace files.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloadDef names one workload, the percentile op_tail_us reports for
// it — one that leaves well over ten samples beyond it in the fixed
// iterations of a run alone — and the number of those iterations.
type workloadDef struct {
	name  string
	why   string
	tail  float64
	fixed func(sizes) int
	run   func(*env) (*iteration, error)
}

var workloads = []workloadDef{
	{"construct_reconcile", "protocol level: topology BFS in Construct, then core push/reconcile handlers, p2p send and the sim heap", 0.95,
		func(sz sizes) int { return sz.crFixed }, runConstructReconcile},
	{"churn_gossip", "protocol level: timer-dense virtual-time run of joins, leaves and liveness gossip; topology idle", 0.95,
		func(sz sizes) int { return sz.chFixed }, runChurnGossip},
	{"data_reconcile", "data level: real hierarchies in every message, so saintetiq merge and encode and summarystore swap dominate", 0.80,
		func(sz sizes) int { return sz.drFixed }, runDataReconcile},
	{"serve_zipf", "socket clients with Zipf-repeated queries and installs beside them, so the gateway cache is used", 0.99,
		func(sz sizes) int { return sz.svFixed }, runServeZipf},
	{"serve_miss", "socket clients with all-distinct queries, so cache and singleflight are bypassed and query evaluation shows", 0.99,
		func(sz sizes) int { return sz.svFixed }, runServeMiss},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// env is what one iteration of a workload receives: only the seed and the
// sizes reach the generated inputs.
type env struct {
	seed int64
	sz   sizes
	rec  *recorder // nil when untraced
	// verify makes a serving workload compare every answer it receives
	// with a direct evaluation (the last iteration of a traced run).
	verify bool
}

// iteration is the outcome of one fresh set-up plus one measured phase.
type iteration struct {
	setup, wall time.Duration
	rssMB       float64   // resident-set peak of this iteration
	ops         []float64 // microseconds per operation
	peers       int
	msgs, bytes int64
	attempted   int
	failed      int
	notes       []string           // what failed
	hash        string             // determinism fingerprint (simulation workloads)
	layer       map[string]float64 // per-layer counts the driver reads directly
	tt          *traceTransport    // traced simulation runs
	probe       func(m map[string]float64)
	close       func()
}

func newIteration() *iteration {
	return &iteration{layer: make(map[string]float64), close: func() {}}
}

// check counts one correctness gate.
func (it *iteration) check(ok bool, format string, args ...any) {
	it.attempted++
	if !ok {
		it.failed++
		it.notes = append(it.notes, fmt.Sprintf(format, args...))
	}
}

// result is what a run reports: the contract's last line plus the extras
// the repeat mode and the README describe.
type result struct {
	Workload   string
	Seed       int64
	Traced     bool
	Correct    bool
	Attempted  int
	Failed     int
	Metrics    map[string]metric
	Iterations int
	OpSamples  int
	Hash       string   // of the fixed iterations' reports (simulation workloads)
	Notes      []string // what failed
	Machine    map[string]string
	Derived    map[string]float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func machine() map[string]string {
	m := map[string]string{
		"num_cpu":    fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m["commit"] = s.Value
			}
		}
	}
	return m
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// resetPeakRSS returns the free heap to the system and makes the kernel
// forget the high-water mark (Linux: "5" into /proc/self/clear_refs), so
// the next peakRSSMB reads the peak of one iteration alone and a run can
// report their midmean. A process-wide maximum is decided by the one
// iteration in which the collector started latest. Where the reset is not
// available the marks accumulate and peak_rss_mb reads high.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// subSeed is the seed of iteration i of a run: a splitmix64 step over the
// pair, so neighbouring run seeds share no iteration.
func subSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i) + 1
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// runner carries one run of one workload from iteration to iteration.
type runner struct {
	w    *workloadDef
	seed int64
	sz   sizes
	res  *result
	last *iteration // the latest iteration, still open: the probes read its state
}

// iterate runs iteration i — a fresh set-up on the inputs of sub-seed i,
// then one measured phase — and counts its gates into the result.
func (r *runner) iterate(i int, rec *recorder, verify bool) (*iteration, error) {
	r.close()
	resetPeakRSS() // every iteration starts from a collected heap
	it, err := r.w.run(&env{seed: subSeed(r.seed, i), sz: r.sz, rec: rec, verify: verify})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.w.name, err)
	}
	it.rssMB = peakRSSMB()
	r.last = it
	r.res.Iterations++
	r.res.Attempted += it.attempted
	r.res.Failed += it.failed
	r.res.Notes = append(r.res.Notes, it.notes...)
	return it, nil
}

// check counts one gate of the run itself.
func (r *runner) check(ok bool, format string, args ...any) {
	r.res.Attempted++
	if !ok {
		r.res.Failed++
		r.res.Notes = append(r.res.Notes, fmt.Sprintf(format, args...))
	}
}

func (r *runner) close() {
	if r.last != nil {
		r.last.close()
		r.last = nil
	}
}

// runWorkload repeats iterations of one workload until `seconds` of
// measured time has passed and reduces them: timings to midmeans, operation
// samples pooled to percentiles.
func runWorkload(w *workloadDef, seed int64, seconds float64, traced, smoke bool, outDir string, log io.Writer) (*result, error) {
	r := &runner{w: w, seed: seed, sz: sizesFor(smoke),
		res: &result{Workload: w.name, Seed: seed, Traced: traced, Machine: machine(), Metrics: map[string]metric{}}}
	defer r.close()
	var err error
	if traced {
		err = r.traced(seconds, outDir, log)
	} else {
		err = r.untraced(seconds)
	}
	r.res.Correct = r.res.Failed == 0
	return r.res, err
}

// untraced is the run that reports the end-to-end metrics.
func (r *runner) untraced(seconds float64) error {
	res, fixed := r.res, r.w.fixed(r.sz)
	var setups, walls, rss, ops []float64
	var msgs, bytes, peers int64
	var measured time.Duration
	derived := map[string][]float64{}
	hash := sha256.New()
	for i := 0; i < fixed || measured.Seconds() < seconds; i++ {
		it, err := r.iterate(i, nil, false)
		if err != nil {
			return err
		}
		measured += it.wall
		setups = append(setups, it.setup.Seconds())
		walls = append(walls, it.wall.Seconds())
		rss = append(rss, it.rssMB)
		ops = append(ops, it.ops...)
		if i < fixed {
			msgs, bytes, peers = msgs+it.msgs, bytes+it.bytes, peers+int64(it.peers)
			io.WriteString(hash, it.hash)
			for k, v := range it.layer {
				if strings.HasPrefix(k, "core.mean_") {
					derived[k] = append(derived[k], v)
				}
			}
		}
	}
	if r.last.hash != "" {
		res.Hash = hex.EncodeToString(hash.Sum(nil))
	}
	res.OpSamples = len(ops)
	put := func(name string, v float64) { res.Metrics[name] = metric{v, unitOf(endToEnd, name)} }
	put("setup_s", midmean(setups))
	put("wall_s", midmean(walls))
	put("op_p50_us", percentile(ops, 0.50))
	put("op_tail_us", percentile(ops, r.w.tail))
	put("peak_rss_mb", midmean(rss))
	put("msgs_per_peer", float64(msgs)/float64(peers))
	put("bytes_per_peer", float64(bytes)/float64(peers))
	res.Derived = map[string]float64{"ops_per_s": float64(len(r.last.ops)) / midmean(walls)}
	for k, vs := range derived {
		res.Derived[k] = mean(vs)
	}
	return nil
}

// tracedPairs is the least number of iteration pairs a traced run makes.
const tracedPairs = 2

// traced is the run that reports the per-layer metrics. It runs every
// sub-seed twice, untraced then traced: the pair's wall-clock ratio is the
// tracing overhead, and its report hashes must agree — tracing from outside
// changes nothing an observer of the protocol can see.
func (r *runner) traced(seconds float64, outDir string, log io.Writer) error {
	res, rec := r.res, newRecorder()
	var walls, tracedWalls []float64
	var measured time.Duration
	layer := map[string]float64{} // the traced iterations' counts, summed
	for i := 0; i < tracedPairs || measured.Seconds() < seconds; i++ {
		plain, err := r.iterate(i, nil, false)
		if err != nil {
			return err
		}
		it, err := r.iterate(i, rec, false)
		if err != nil {
			return err
		}
		if plain.hash != "" { // the simulation workloads' determinism gate
			r.check(it.hash == plain.hash, "iteration %d: traced report hash %s, untraced %s", i, it.hash, plain.hash)
		}
		measured += plain.wall + it.wall
		walls = append(walls, plain.wall.Seconds())
		tracedWalls = append(tracedWalls, it.wall.Seconds())
		res.OpSamples += len(it.ops)
		for k, v := range it.layer {
			layer[k] += v
		}
	}
	m := ledger(r.w, rec, layer, len(tracedWalls), mean(tracedWalls), mean(tracedWalls)/mean(walls))
	r.last.probe(m)
	finishLedger(r.w, m)
	for _, d := range perLayer {
		res.Metrics[d.Name] = metric{m[d.Name], d.Unit}
	}
	printLedger(log, r.w, m, mean(tracedWalls))
	if isServing(r.w) {
		// One more iteration, outside every timing, in which the clients
		// compare each answer with a direct evaluation.
		it, err := r.iterate(0, nil, true)
		if err != nil {
			return err
		}
		fmt.Fprintf(log, "verified %.0f of %d answers against direct evaluation\n", it.layer["bench.verified"], len(it.ops))
	}
	path := fmt.Sprintf("%s/trace-%s.json", outDir, r.w.name)
	meta := machine()
	meta["workload"], meta["seed"] = r.w.name, fmt.Sprint(r.seed)
	if err := rec.writeFile(path, meta); err != nil {
		return err
	}
	fmt.Fprintf(log, "trace: %d spans written to %s\n", len(rec.spans), path)
	return nil
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// printResult writes the human-readable block and, last, the contract's
// one-line JSON object.
func printResult(w io.Writer, res *result) error {
	mode := "untraced"
	defs := endToEnd
	if res.Traced {
		mode, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "== %s seed=%d %s: %d iterations, %d op samples\n", res.Workload, res.Seed, mode, res.Iterations, res.OpSamples)
	keys := make([]string, 0, len(res.Machine))
	for k := range res.Machine {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "machine %s=%s\n", k, res.Machine[k])
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-42s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	keys = keys[:0]
	for k := range res.Derived {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-42s %16.6g (derived)\n", k, res.Derived[k])
	}
	failRatio := 0.0
	if res.Attempted > 0 {
		failRatio = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "%-42s %16.6g (failed %d of %d attempted)\n", "fail_ratio", failRatio, res.Failed, res.Attempted)
	if res.Hash != "" {
		fmt.Fprintf(w, "report_hash %s\n", res.Hash)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "FAILED: %s\n", n)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload in-process and print the result line (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 42, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", -1, "measured time per run (default 10, with -smoke 0: the fixed iterations only)")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
	smoke := fs.Bool("smoke", false, "peers ÷10, queries ÷100, same code paths")
	repeat := fs.Int("repeat", 0, "run N untraced sets and report the run-to-run spread of every end-to-end metric against its bound")
	outDir := fs.String("out", defaultOutDir(), "directory for trace and result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 0 {
		*seconds = 10
		if *smoke {
			*seconds = 0
		}
	}
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		res, err := runWorkload(w, *seed, *seconds, *trace != 0, *smoke, *outDir, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if err := printResult(stdout, res); err != nil || !res.Correct {
			return 1
		}
		return 0
	}
	if err := runAll(*seed, *seconds, *smoke, *repeat, *outDir, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// defaultOutDir is bench/out from the repository root, out from inside
// bench/.
func defaultOutDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return "bench/out"
	}
	return "out"
}
