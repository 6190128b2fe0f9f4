// Command experiments regenerates every table and figure of the paper's
// evaluation (EDBT 2008, §6.2) and prints them as plain-text tables.
//
// Usage:
//
//	experiments [-exp all|params|mapping|fig4|fig5|fig6|fig7|storage|
//	             ablation-maintenance|ablation-routing|ablation-walks|
//	             ablation-ttl|ablation-unavailable|ablation-arity|
//	             ablation-locality|coverage|concurrency|churn|faults|scale|
//	             gateway]
//	            [-quick] [-seed N] [-parallel N] [-shards N] [-dispatchers N]
//	            [-churn-out FILE] [-faults-out FILE] [-scale-out FILE]
//	            [-gateway-out FILE]
//
// Flags:
//
//	-exp          experiment to run; "all" runs every runner in order
//	              except scale (100k-peer overlays; request it by name)
//	-quick        down-scaled smoke configuration instead of Table 3 scale
//	-seed         random seed driving every sweep point (default 42)
//	-parallel     sweep worker goroutines (0 = one per CPU, 1 = sequential)
//	-shards       global-summary store shards per simulated summary peer
//	              (1 = the paper's single tree)
//	-dispatchers  caps the dispatcher-count sweep of the concurrency
//	              experiment (0 = up to one dispatcher per domain); the
//	              figure sweeps run on the single-threaded event engine
//	              and ignore it
//	-churn-out    file the churn experiment writes its coverage-over-time
//	              series to as JSON (default BENCH_churn.json; empty
//	              disables the file)
//	-faults-out   file the faults experiment writes its per-scenario
//	              reconvergence points to as JSON (default
//	              BENCH_faults.json; empty disables the file)
//	-scale-out    file the scale experiment writes its overlay-size sweep
//	              to as JSON (default BENCH_scale.json; empty disables the
//	              file)
//	-gateway-out  file the gateway experiment writes its client-count sweep
//	              to as JSON (default BENCH_gateway.json; empty disables
//	              the file)
//
// The default full configuration mirrors Table 3 (domains up to 2000
// peers, networks up to 5000, 200 queries); -quick runs a down-scaled
// sweep for smoke testing. -parallel fans the sweep grids across N worker
// goroutines (0 = one per CPU); every grid point is independently seeded,
// so any worker count prints bit-identical tables. The concurrency
// experiment is the exception: it measures wall-clock time of overlapping
// per-domain reconciliations on the sharded channel transport, so its rows
// vary run to run while the trend (more dispatchers, less wall time) is
// the signal.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"p2psum"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, params, mapping, fig4, fig5, fig6, fig7, storage, ablation-maintenance, ablation-routing, ablation-walks, ablation-ttl, ablation-unavailable, ablation-arity, ablation-locality, coverage, concurrency, churn, faults, scale, gateway)")
	quick := flag.Bool("quick", false, "run the down-scaled smoke configuration")
	seed := flag.Int64("seed", 42, "random seed")
	parallel := flag.Int("parallel", 0, "sweep worker goroutines (0 = one per CPU, 1 = sequential)")
	shards := flag.Int("shards", 1, "global-summary store shards per simulated summary peer (1 = single tree)")
	dispatchers := flag.Int("dispatchers", 0, "dispatcher-count cap of the concurrency experiment (0 = one per domain)")
	churnOut := flag.String("churn-out", "BENCH_churn.json", "file for the churn experiment's JSON series (empty: no file)")
	faultsOut := flag.String("faults-out", "BENCH_faults.json", "file for the faults experiment's JSON points (empty: no file)")
	scaleOut := flag.String("scale-out", "BENCH_scale.json", "file for the scale experiment's JSON series (empty: no file)")
	gatewayOut := flag.String("gateway-out", "BENCH_gateway.json", "file for the gateway experiment's JSON sweep (empty: no file)")
	flag.Parse()

	cfg := p2psum.DefaultExperimentConfig()
	if *quick {
		cfg = p2psum.QuickExperimentConfig()
	}
	cfg.Seed = *seed
	cfg.Workers = *parallel
	cfg.Shards = *shards
	cfg.Dispatchers = *dispatchers

	type runner struct {
		name string
		run  func() error
	}
	table := func(f func(p2psum.ExperimentConfig) (*p2psum.ResultTable, error)) func() error {
		return func() error {
			start := time.Now()
			t, err := f(cfg)
			if err != nil {
				return err
			}
			fmt.Println(t)
			fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
			return nil
		}
	}
	runners := []runner{
		{"params", func() error { fmt.Println(p2psum.SimulationParameters(cfg)); return nil }},
		{"mapping", func() error {
			out, err := p2psum.RunMappingWalkthrough()
			if err != nil {
				return err
			}
			fmt.Println(out)
			return nil
		}},
		{"fig4", table(p2psum.RunFigure4)},
		{"fig5", table(p2psum.RunFigure5)},
		{"fig6", table(p2psum.RunFigure6)},
		{"fig7", table(p2psum.RunFigure7)},
		{"storage", table(p2psum.RunStorage)},
		{"ablation-maintenance", table(p2psum.RunAblationMaintenance)},
		{"ablation-routing", table(p2psum.RunAblationRoutingModes)},
		{"ablation-walks", table(p2psum.RunAblationWalks)},
		{"ablation-ttl", table(p2psum.RunAblationConstructionTTL)},
		{"ablation-unavailable", table(p2psum.RunAblationUnavailable)},
		{"ablation-arity", table(p2psum.RunAblationArity)},
		{"ablation-locality", table(p2psum.RunAblationLocality)},
		{"coverage", table(p2psum.RunCoverage)},
		{"concurrency", table(p2psum.RunConcurrency)},
		{"churn", func() error {
			start := time.Now()
			t, res, err := p2psum.RunChurnScenario(cfg)
			if err != nil {
				return err
			}
			fmt.Println(t)
			if *churnOut != "" {
				data, err := json.MarshalIndent(res, "", "  ")
				if err != nil {
					return err
				}
				if err := os.WriteFile(*churnOut, append(data, '\n'), 0o644); err != nil {
					return err
				}
				fmt.Printf("(series written to %s)\n", *churnOut)
			}
			fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
			return nil
		}},
		{"faults", func() error {
			start := time.Now()
			t, res, err := p2psum.RunFaultsScenario(cfg)
			if err != nil {
				return err
			}
			fmt.Println(t)
			if *faultsOut != "" {
				data, err := json.MarshalIndent(res, "", "  ")
				if err != nil {
					return err
				}
				if err := os.WriteFile(*faultsOut, append(data, '\n'), 0o644); err != nil {
					return err
				}
				fmt.Printf("(points written to %s)\n", *faultsOut)
			}
			fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
			return nil
		}},
		{"scale", func() error {
			start := time.Now()
			t, res, err := p2psum.RunScaleScenario(cfg)
			if err != nil {
				return err
			}
			fmt.Println(t)
			if *scaleOut != "" {
				data, err := json.MarshalIndent(res, "", "  ")
				if err != nil {
					return err
				}
				if err := os.WriteFile(*scaleOut, append(data, '\n'), 0o644); err != nil {
					return err
				}
				fmt.Printf("(series written to %s)\n", *scaleOut)
			}
			fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
			return nil
		}},
		{"gateway", func() error {
			start := time.Now()
			t, res, err := p2psum.RunGatewayScenario(cfg)
			if err != nil {
				return err
			}
			fmt.Println(t)
			if *gatewayOut != "" {
				data, err := json.MarshalIndent(res, "", "  ")
				if err != nil {
					return err
				}
				if err := os.WriteFile(*gatewayOut, append(data, '\n'), 0o644); err != nil {
					return err
				}
				fmt.Printf("(sweep written to %s)\n", *gatewayOut)
			}
			fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
			return nil
		}},
	}

	want := strings.ToLower(*exp)
	ran := false
	for _, r := range runners {
		if want != "all" && want != r.name {
			continue
		}
		// The full-config scale sweep runs 100k-peer overlays for minutes;
		// it only runs when requested by name.
		if want == "all" && r.name == "scale" {
			continue
		}
		ran = true
		if err := r.run(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", r.name, err)
			os.Exit(1)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
