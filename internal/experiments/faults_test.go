package experiments

import "testing"

// TestFaultsExperimentQuick smoke-runs the full faults sweep at the quick
// scale: every point must reconverge within the deadline and report a
// sane measurement.
func TestFaultsExperimentQuick(t *testing.T) {
	cfg := Quick()
	table, res, err := FaultsExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if table == nil || len(table.Series) == 0 {
		t.Fatal("empty faults table")
	}
	checkMachine(t, res.Machine)
	if len(res.Points) != 12 {
		t.Fatalf("points = %d, want 12 (4 scenarios x 3 severities)", len(res.Points))
	}
	for i, p := range res.Points {
		if p.Scenario == "" || p.Severity <= 0 {
			t.Errorf("point %d: missing scenario/severity: %+v", i, p)
		}
		if p.TimeToReconvergeSec < 0 {
			t.Errorf("point %d (%s %g): negative reconvergence time", i, p.Scenario, p.Severity)
		}
		if p.RepairMsgs < 0 || p.RepairBytes < 0 {
			t.Errorf("point %d (%s %g): negative repair traffic", i, p.Scenario, p.Severity)
		}
		if p.CoverageDip < 0 || p.CoverageDip > 1 {
			t.Errorf("point %d (%s %g): coverage dip %g out of [0,1]", i, p.Scenario, p.Severity, p.CoverageDip)
		}
		switch p.Scenario {
		case "partition":
			// Gossip is off for this scenario (shared-view artifact, see the
			// package comment): damage is summary staleness, repaired by rings.
			if p.RepairMsgs == 0 {
				t.Errorf("point %d: partition repaired for free (severity %g)", i, p.Severity)
			}
			if p.Reconciliations == 0 {
				t.Errorf("point %d: partition healed without a reconciliation ring", i)
			}
			if p.Elections != 0 {
				t.Errorf("point %d: partition fired %d elections (heal must refute before confirmation)", i, p.Elections)
			}
		case "adversary":
			// Forged gossip must bounce: no suspicion filed, no election.
			if p.Suspicions != 0 {
				t.Errorf("point %d: forged gossip filed %d suspicions", i, p.Suspicions)
			}
			if p.Elections != 0 {
				t.Errorf("point %d: forged gossip fired %d elections", i, p.Elections)
			}
			if p.RepairMsgs == 0 {
				t.Errorf("point %d: adversary waves produced no refutation traffic", i)
			}
		case "spkill":
			// Killed summary peers strand their clients until the election
			// repairs every orphaned domain.
			if p.Elections == 0 {
				t.Errorf("point %d: %g of the summary peers died and nothing was elected", i, p.Severity)
			}
			if p.CoverageDip >= 1 {
				t.Errorf("point %d: summary-peer kills left coverage at %g", i, p.CoverageDip)
			}
			if p.Suspicions == 0 {
				t.Errorf("point %d: silent summary-peer failures filed no suspicion", i)
			}
		}
	}
}
