package experiments

import (
	"strings"
	"testing"
)

// checkMachine asserts a result recorded the box it ran on.
func checkMachine(t *testing.T, m Machine) {
	t.Helper()
	if m.NumCPU <= 0 || m.GOMAXPROCS <= 0 || m.GoVersion == "" {
		t.Errorf("machine fields not filled: %+v", m)
	}
}

// TestScaleExperimentQuick smoke-runs the scale sweep at the quick scale
// (1k peers, regions 1 and 4): the experiment itself fails on a report
// hash that differs across region counts or repeats; here every point
// must also carry a median inside its min/max and a speedup computed
// from the medians.
func TestScaleExperimentQuick(t *testing.T) {
	cfg := Quick()
	table, res, err := ScaleExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(table.Series), len(cfg.ScaleRegions)+1; got != want {
		t.Fatalf("table has %d series, want %d (one per region count + msgs/peer)", got, want)
	}
	checkMachine(t, res.Machine)
	if got, want := len(res.Runs), len(cfg.ScalePeers)*len(cfg.ScaleRegions); got != want {
		t.Fatalf("runs = %d, want %d", got, want)
	}
	base := res.Runs[0]
	for i, r := range res.Runs {
		if r.Regions != cfg.ScaleRegions[i%len(cfg.ScaleRegions)] {
			t.Errorf("run %d: regions = %d", i, r.Regions)
		}
		if r.ReportHash != base.ReportHash || r.Events != base.Events || r.Msgs != base.Msgs || r.Bytes != base.Bytes {
			t.Errorf("run %d (%d regions) diverges from the base run: %+v vs %+v", i, r.Regions, r, base)
		}
		if r.Events == 0 || r.Reconciliations == 0 || r.Windows == 0 {
			t.Errorf("run %d (%d regions): idle run: %+v", i, r.Regions, r)
		}
		if r.Violations != 0 {
			t.Errorf("run %d (%d regions): %d causality violations", i, r.Regions, r.Violations)
		}
		if !(r.WallSecMin > 0 && r.WallSecMin <= r.WallSec && r.WallSec <= r.WallSecMax) {
			t.Errorf("run %d (%d regions): wall min/median/max out of order: %g/%g/%g",
				i, r.Regions, r.WallSecMin, r.WallSec, r.WallSecMax)
		}
		if want := base.WallSec / r.WallSec; r.Speedup != want {
			t.Errorf("run %d (%d regions): speedup %g, want %g from the medians", i, r.Regions, r.Speedup, want)
		}
	}
	if !strings.Contains(table.String(), "best multi-region speedup") {
		t.Errorf("table notes carry no multi-region verdict:\n%s", table)
	}
}

// TestBestSpeedup: the verdict is the best multi-region ratio — the
// 1-region base row's 1.00 must not mask a sweep where every parallel
// run lost.
func TestBestSpeedup(t *testing.T) {
	runs := []ScaleRunResult{
		{Peers: 10, Regions: 1, Speedup: 1},
		{Peers: 10, Regions: 2, Speedup: 0.8},
		{Peers: 10, Regions: 4, Speedup: 0.9},
		{Peers: 20, Regions: 1, Speedup: 1},
		{Peers: 20, Regions: 2, Speedup: 1.4},
		{Peers: 30, Regions: 1, Speedup: 1},
	}
	for peers, want := range map[int]float64{10: 0.9, 20: 1.4, 30: 0} {
		if got := bestSpeedup(runs, peers); got != want {
			t.Errorf("bestSpeedup(%d peers) = %g, want %g", peers, got, want)
		}
	}
}
