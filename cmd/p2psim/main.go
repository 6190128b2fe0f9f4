// Command p2psim runs configurable summary-managed P2P simulations:
// domain construction on a power-law overlay, churn with the paper's
// lognormal lifetimes, and a query workload routed through summaries,
// reporting message counts, reconciliations, coverage and accuracy.
//
// Usage:
//
//	p2psim [-peers 1000] [-sps 10] [-alpha 0.3] [-hours 6] [-queries 50]
//	       [-hit 0.10] [-graceful 0.8] [-mode balanced|precise|max-recall]
//	       [-transport sim|channel] [-loss 0.0] [-shards 1] [-dispatchers 1]
//	       [-seed 1] [-runs 1] [-parallel 0]
//
// Flags:
//
//	-peers        overlay size (Barabási–Albert power-law graph, avg degree 4)
//	-sps          number of summary peers = domains (highest-degree election)
//	-alpha        freshness threshold α gating ring reconciliation (§6.1.1)
//	-hours        simulated churn horizon (paper lognormal session lifetimes)
//	-queries      routed queries measured after churn
//	-hit          per-query match fraction (Table 3: 10%)
//	-graceful     probability a departure notifies its summary peer (§4.3)
//	-mode         SQ router mode: balanced (PQ), precise (PQ ∩ Pfresh),
//	              max-recall (PQ ∪ Pold) — the §6.1.2 trade-off
//	-transport    overlay substrate: sim (deterministic discrete-event
//	              engine, the default) or channel (concurrent goroutine
//	              delivery in real time)
//	-loss         packet-loss probability in [0,1) (channel transport only)
//	-shards       global-summary store shards per domain (1 = the paper's
//	              single tree; visible in data-level runs, otherwise only
//	              selects the store layout)
//	-dispatchers  dispatch groups of the channel transport (channel
//	              transport only): domains map onto groups at construction,
//	              so independent domains run their handlers concurrently;
//	              1 = the single serialized dispatcher
//	-seed         random seed of the first replica
//	-runs         independently seeded replicas (seed, seed+1, ...)
//	-parallel     concurrent replicas (0 = one per CPU)
//
// -runs N repeats the scenario under seeds seed..seed+N-1 and prints
// per-run summaries plus aggregate means; -parallel bounds how many
// replicas run concurrently.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"

	"p2psum"
	"p2psum/internal/par"
)

type options struct {
	peers, sps, queries int
	shards, dispatchers int
	alpha, hours        float64
	hit, graceful, loss float64
	mode                p2psum.RoutingMode
	transport           p2psum.TransportKind
	seed                int64
}

// runResult aggregates one simulation replica.
type runResult struct {
	seed                   int64
	construction           int64
	maintenance            int64
	coverage               float64
	sqMsgs, flMsgs, ceMsgs float64
	precision, recall      float64
	reconciliations        int
	describe               string
	counts, volumes        map[string]int64
	totalMsgs, totalBytes  int64
}

func runOne(o options) (*runResult, error) {
	sim, err := p2psum.NewSimulation(p2psum.SimOptions{
		Peers:        o.peers,
		SummaryPeers: o.sps,
		Alpha:        o.alpha,
		Seed:         o.seed,
		Transport:    o.transport,
		LossRate:     o.loss,
		Shards:       o.shards,
		Dispatchers:  o.dispatchers,
	})
	if err != nil {
		return nil, err
	}
	defer sim.Close()
	sim.SetRoutingMode(o.mode)

	if err := sim.Construct(); err != nil {
		return nil, err
	}
	r := &runResult{seed: o.seed, construction: sim.TotalMessages()}

	sim.RunChurn(o.hours, o.graceful)
	r.coverage = sim.Coverage()
	r.maintenance = sim.TotalMessages() - r.construction
	r.describe = sim.Describe()
	r.reconciliations = sim.Reconciliations()

	for q := 0; q < o.queries; q++ {
		oracle := sim.RandomMatchOracle(o.hit)
		origin := sim.RandomClient()
		res, err := sim.QueryProtocol(origin, oracle, 0)
		if err != nil {
			return nil, err
		}
		r.sqMsgs += float64(res.Messages)
		r.precision += res.Accuracy.Precision()
		r.recall += res.Accuracy.Recall()
		r.flMsgs += float64(sim.FloodQuery(origin, 3, oracle, len(oracle.Current)).Messages)
		r.ceMsgs += float64(sim.CentralizedQuery(oracle).Messages)
	}
	n := float64(o.queries)
	r.sqMsgs, r.flMsgs, r.ceMsgs = r.sqMsgs/n, r.flMsgs/n, r.ceMsgs/n
	r.precision, r.recall = r.precision/n, r.recall/n
	r.counts = sim.MessageCounts()
	r.volumes = sim.MessageBytes()
	r.totalMsgs = sim.TotalMessages()
	r.totalBytes = sim.TotalBytes()
	return r, nil
}

func printDetail(o options, r *runResult, modeName string) {
	fmt.Printf("constructed %d domains over %d peers (coverage %.0f%%)\n",
		o.sps, o.peers, 100*r.coverage)
	fmt.Printf("construction traffic: %d messages\n", r.construction)
	fmt.Printf("\nafter %.1fh of churn:\n%s", o.hours, r.describe)
	fmt.Printf("maintenance traffic: %d messages (%.2f per node per hour)\n",
		r.maintenance, float64(r.maintenance)/float64(o.peers)/o.hours)

	fmt.Printf("\nquery routing over %d total-lookup queries (%.0f%% hits):\n", o.queries, o.hit*100)
	fmt.Printf("  %-22s %10.1f msg/query\n", "centralized index", r.ceMsgs)
	fmt.Printf("  %-22s %10.1f msg/query  precision=%.3f recall=%.3f\n",
		"SQ (summaries, "+modeName+")", r.sqMsgs, r.precision, r.recall)
	fmt.Printf("  %-22s %10.1f msg/query\n", "pure flooding TTL=3", r.flMsgs)
	fmt.Printf("  SQ saves %.1fx over flooding\n", r.flMsgs/r.sqMsgs)

	fmt.Println("\nmessage breakdown (count / bytes):")
	names := make([]string, 0, len(r.counts))
	for k := range r.counts {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-16s %10d %12d B\n", k, r.counts[k], r.volumes[k])
	}
	fmt.Printf("  %-16s %10d %12d B\n", "total", r.totalMsgs, r.totalBytes)
}

func main() {
	peers := flag.Int("peers", 1000, "overlay size")
	sps := flag.Int("sps", 10, "number of summary peers (domains)")
	alpha := flag.Float64("alpha", 0.3, "freshness threshold")
	hours := flag.Float64("hours", 6, "simulated churn hours")
	queries := flag.Int("queries", 50, "routed queries after churn")
	hit := flag.Float64("hit", 0.10, "per-query match fraction")
	graceful := flag.Float64("graceful", 0.8, "probability a departure is graceful")
	mode := flag.String("mode", "balanced", "routing mode: balanced, precise, max-recall")
	transport := flag.String("transport", "sim", "transport: sim (deterministic) or channel (concurrent)")
	loss := flag.Float64("loss", 0, "packet-loss probability (channel transport only)")
	shards := flag.Int("shards", 1, "global-summary store shards per domain (data-level runs; 1 = single tree)")
	dispatchers := flag.Int("dispatchers", 1, "dispatch groups of the channel transport (channel only; domains map onto groups, 1 = single dispatcher)")
	seed := flag.Int64("seed", 1, "random seed (first replica)")
	runs := flag.Int("runs", 1, "independently seeded replicas (seed, seed+1, ...)")
	parallel := flag.Int("parallel", 0, "concurrent replicas (0 = one per CPU)")
	flag.Parse()

	o := options{
		peers: *peers, sps: *sps, queries: *queries,
		shards: *shards, dispatchers: *dispatchers,
		alpha: *alpha, hours: *hours,
		hit: *hit, graceful: *graceful, loss: *loss,
		seed: *seed,
	}
	switch *mode {
	case "balanced":
		o.mode = p2psum.RouteBalanced
	case "precise":
		o.mode = p2psum.RoutePrecise
	case "max-recall":
		o.mode = p2psum.RouteMaxRecall
	default:
		fail(fmt.Errorf("unknown mode %q", *mode))
	}
	switch *transport {
	case "sim":
		o.transport = p2psum.TransportSim
	case "channel":
		o.transport = p2psum.TransportChannel
	default:
		fail(fmt.Errorf("unknown transport %q", *transport))
	}

	if *runs <= 1 {
		r, err := runOne(o)
		if err != nil {
			fail(err)
		}
		printDetail(o, r, *mode)
		return
	}

	// Replica sweep: run the same scenario under consecutive seeds across
	// a worker pool and report per-run summaries plus aggregate means.
	workers := *parallel
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > *runs {
		workers = *runs
	}
	results := make([]*runResult, *runs)
	if err := par.ForEach(workers, *runs, func(i int) error {
		ro := o
		ro.seed = o.seed + int64(i)
		var err error
		results[i], err = runOne(ro)
		return err
	}); err != nil {
		fail(err)
	}

	fmt.Printf("%d runs of %d peers / %d domains (%s transport, %d workers):\n",
		*runs, o.peers, o.sps, *transport, workers)
	var agg runResult
	for _, r := range results {
		fmt.Printf("  seed=%-4d coverage=%5.1f%% maint=%-8d sq=%8.1f flood=%9.1f precision=%.3f recall=%.3f\n",
			r.seed, 100*r.coverage, r.maintenance, r.sqMsgs, r.flMsgs, r.precision, r.recall)
		agg.coverage += r.coverage
		agg.maintenance += r.maintenance
		agg.sqMsgs += r.sqMsgs
		agg.flMsgs += r.flMsgs
		agg.ceMsgs += r.ceMsgs
		agg.precision += r.precision
		agg.recall += r.recall
	}
	n := float64(*runs)
	fmt.Printf("mean: coverage=%.1f%% maint=%.0f msg (%.2f/node/h) sq=%.1f flood=%.1f central=%.1f precision=%.3f recall=%.3f\n",
		100*agg.coverage/n, float64(agg.maintenance)/n,
		float64(agg.maintenance)/n/float64(o.peers)/o.hours,
		agg.sqMsgs/n, agg.flMsgs/n, agg.ceMsgs/n, agg.precision/n, agg.recall/n)
	fmt.Printf("  SQ saves %.1fx over flooding\n", agg.flMsgs/agg.sqMsgs)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "p2psim:", err)
	os.Exit(1)
}
