package p2psum_test

import (
	"testing"

	"p2psum"
)

// runScenario drives one full construction + churn + query scenario on the
// deterministic transport and returns the per-type message counts — the
// unit of every cost figure in the paper, and the quantity the determinism
// guarantee is stated over.
func runScenario(t *testing.T, seed int64) map[string]int64 {
	t.Helper()
	sim, err := p2psum.NewSimulation(p2psum.SimOptions{
		Peers: 400, SummaryPeers: 6, Alpha: 0.3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Construct(); err != nil {
		t.Fatal(err)
	}
	sim.RunChurn(2, 0.8)
	for q := 0; q < 10; q++ {
		oracle := sim.RandomMatchOracle(0.10)
		if _, err := sim.QueryProtocol(sim.RandomClient(), oracle, 0); err != nil {
			t.Fatal(err)
		}
	}
	return sim.MessageCounts()
}

// TestSeedDeterminism is the regression gate for the discrete-event path:
// the same seed must produce identical per-type message counts run after
// run.
func TestSeedDeterminism(t *testing.T) {
	a := runScenario(t, 99)
	b := runScenario(t, 99)
	if len(a) != len(b) {
		t.Fatalf("message type sets differ: %v vs %v", a, b)
	}
	for typ, n := range a {
		if b[typ] != n {
			t.Errorf("type %q: run 1 counted %d, run 2 counted %d", typ, n, b[typ])
		}
	}
	// Sanity: a different seed must not accidentally share all counts.
	c := runScenario(t, 100)
	same := len(a) == len(c)
	for typ, n := range a {
		if c[typ] != n {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 99 and 100 produced identical traffic — seeding is broken")
	}
}
