package experiments

import "testing"

// checkMachine asserts a result recorded the box it ran on.
func checkMachine(t *testing.T, m Machine) {
	t.Helper()
	if m.NumCPU <= 0 || m.GOMAXPROCS <= 0 || m.GoVersion == "" {
		t.Errorf("machine fields not filled: %+v", m)
	}
}

// TestScaleExperimentQuick smoke-runs the scale sweep at the quick scale
// (1k peers): the experiment itself fails on a report hash that differs
// across repeats; here the point must also carry a median inside its
// min/max and reproduce the pinned output exactly. A change that moves
// the protocol's traffic on purpose updates the pin.
func TestScaleExperimentQuick(t *testing.T) {
	cfg := Quick()
	table, res, err := ScaleExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(table.Series); got != 2 {
		t.Fatalf("table has %d series, want 2 (wall s + msgs/peer)", got)
	}
	checkMachine(t, res.Machine)
	if len(res.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(res.Runs))
	}
	r := res.Runs[0]
	if r.Peers != 1000 || r.Reconciliations == 0 {
		t.Errorf("idle or misplaced run: %+v", r)
	}
	const wantHash = "db5bddaee173f2c72445a11030b061d93713ed7a6ad530456ef54fbc4dd01d6f"
	if r.ReportHash != wantHash || r.Msgs != 6822 || r.Bytes != 803562 || r.Events != 6689 {
		t.Errorf("1k point = %s / %d msgs / %d B / %d events, want %s / 6822 / 803562 / 6689",
			r.ReportHash, r.Msgs, r.Bytes, r.Events, wantHash)
	}
	if !(r.WallSecMin > 0 && r.WallSecMin <= r.WallSec && r.WallSec <= r.WallSecMax) {
		t.Errorf("wall min/median/max out of order: %g/%g/%g", r.WallSecMin, r.WallSec, r.WallSecMax)
	}
}
