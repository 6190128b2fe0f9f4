package experiments

import (
	"encoding/json"
	"testing"
)

func TestChurnExperimentQuick(t *testing.T) {
	cfg := Quick()
	tbl, res, err := ChurnExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkMachine(t, res.Machine)
	rates := churnRates(cfg)
	if len(res.Rates) != len(rates) {
		t.Fatalf("got %d rate results, want %d", len(res.Rates), len(rates))
	}
	for i, r := range res.Rates {
		if r.Rate != rates[i] {
			t.Errorf("rate %d = %g, want %g", i, r.Rate, rates[i])
		}
		if len(r.Samples) != churnSamples {
			t.Errorf("rate %g: %d samples, want %d", r.Rate, len(r.Samples), churnSamples)
		}
		if r.MeanCoverage <= 0 || r.MeanCoverage > 1 {
			t.Errorf("rate %g: mean coverage %g out of (0,1]", r.Rate, r.MeanCoverage)
		}
		if r.MinCoverage > r.MeanCoverage {
			t.Errorf("rate %g: min coverage %g above mean %g", r.Rate, r.MinCoverage, r.MeanCoverage)
		}
		if r.Sessions < res.Peers {
			t.Errorf("rate %g: trace has only %d sessions for %d peers", r.Rate, r.Sessions, res.Peers)
		}
		if r.GossipMsgs == 0 {
			t.Errorf("rate %g: no gossip traffic — the liveness layer was idle", r.Rate)
		}
		if r.GossipBytes == 0 {
			t.Errorf("rate %g: gossip traffic carried no bytes — the byte accounting went dark", r.Rate)
		}
		if r.Reconciliations == 0 {
			t.Errorf("rate %g: no reconciliation under churn", r.Rate)
		}
	}
	// Faster churn shortens the replayed sessions.
	first, last := res.Rates[0], res.Rates[len(res.Rates)-1]
	if last.MeanSessionSec >= first.MeanSessionSec {
		t.Errorf("rate %g sessions (%.0fs) not shorter than rate %g (%.0fs)",
			last.Rate, last.MeanSessionSec, first.Rate, first.MeanSessionSec)
	}
	// The table mirrors the result and the result serializes (the driver
	// writes it as BENCH_churn.json).
	if len(tbl.Series) != 6 {
		t.Fatalf("table has %d series, want 6", len(tbl.Series))
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("ChurnResult not serializable: %v", err)
	}
}

// TestChurnExperimentDeterministic: parallel or sequential, same seed, same
// result — the workers only partition independent simulations.
func TestChurnExperimentDeterministic(t *testing.T) {
	cfg := Quick()
	cfg.Workers = 1
	_, seq, err := ChurnExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	_, par, err := ChurnExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(seq)
	b, _ := json.Marshal(par)
	if string(a) != string(b) {
		t.Fatal("churn experiment differs between sequential and parallel sweeps")
	}
}
