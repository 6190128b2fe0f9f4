// Command experiments regenerates every table and figure of the paper's
// evaluation (EDBT 2008, §6.2) and prints them as plain-text tables.
//
// Usage:
//
//	experiments [-exp all|params|mapping|fig4|fig5|fig6|fig7|storage|
//	             ablation-maintenance|ablation-routing|ablation-walks|
//	             ablation-ttl|ablation-unavailable|ablation-arity|
//	             ablation-locality|coverage|churn|faults|scale]
//	            [-quick] [-seed N] [-parallel N]
//	            [-churn-out FILE] [-faults-out FILE] [-scale-out FILE]
//
// Flags:
//
//	-exp          experiment to run; "all" runs every runner in order
//	              except scale (100k-peer overlays; request it by name)
//	-quick        down-scaled smoke configuration instead of Table 3 scale
//	-seed         random seed driving every sweep point (default 42)
//	-parallel     sweep worker goroutines (0 = one per CPU, 1 = sequential)
//	-churn-out    file the churn experiment writes its coverage-over-time
//	              series to as JSON (default BENCH_churn.json; empty
//	              disables the file)
//	-faults-out   file the faults experiment writes its per-scenario
//	              reconvergence points to as JSON (default
//	              BENCH_faults.json; empty disables the file)
//	-scale-out    file the scale experiment writes its overlay-size sweep
//	              to as JSON (default BENCH_scale.json; empty disables the
//	              file)
//
// The default full configuration mirrors Table 3 (domains up to 2000
// peers, networks up to 5000, 200 queries); -quick runs a down-scaled
// sweep for smoke testing. -parallel fans the sweep grids across N worker
// goroutines (0 = one per CPU); every grid point is independently seeded,
// so any worker count prints bit-identical tables; only the "(N.Ns)"
// elapsed-time lines and the scale sweep's wall-clock column differ
// between runs.
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
	exp := flag.String("exp", "all", "experiment to run (all, params, mapping, fig4, fig5, fig6, fig7, storage, ablation-maintenance, ablation-routing, ablation-walks, ablation-ttl, ablation-unavailable, ablation-arity, ablation-locality, coverage, churn, faults, scale)")
	quick := flag.Bool("quick", false, "run the down-scaled smoke configuration")
	seed := flag.Int64("seed", 42, "random seed")
	parallel := flag.Int("parallel", 0, "sweep worker goroutines (0 = one per CPU, 1 = sequential)")
	churnOut := flag.String("churn-out", "BENCH_churn.json", "file for the churn experiment's JSON series (empty: no file)")
	faultsOut := flag.String("faults-out", "BENCH_faults.json", "file for the faults experiment's JSON points (empty: no file)")
	scaleOut := flag.String("scale-out", "BENCH_scale.json", "file for the scale experiment's JSON series (empty: no file)")
	flag.Parse()

	cfg := p2psum.DefaultExperimentConfig()
	if *quick {
		cfg = p2psum.QuickExperimentConfig()
	}
	cfg.Seed = *seed
	cfg.Workers = *parallel

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
		{"churn", withJSON(cfg, p2psum.RunChurnScenario, *churnOut, "series")},
		{"faults", withJSON(cfg, p2psum.RunFaultsScenario, *faultsOut, "points")},
		{"scale", withJSON(cfg, p2psum.RunScaleScenario, *scaleOut, "series")},
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

// withJSON returns the runner of an experiment that also yields a
// machine-readable result: it prints the table, writes the result as
// indented JSON to out unless out is empty, names the file in a
// "(noun written to out)" line and closes with the elapsed time.
func withJSON[R any](cfg p2psum.ExperimentConfig, f func(p2psum.ExperimentConfig) (*p2psum.ResultTable, R, error), out, noun string) func() error {
	return func() error {
		start := time.Now()
		t, res, err := f(cfg)
		if err != nil {
			return err
		}
		fmt.Println(t)
		if out != "" {
			data, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("(%s written to %s)\n", noun, out)
		}
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
		return nil
	}
}
