package experiments

import "testing"

// TestGatewayExperimentQuick smoke-runs the serving-edge sweep at the quick
// scale: every point must answer the full offered load, hit heavily on the
// duplicate-heavy pool, and prove the generation-keyed invalidation.
func TestGatewayExperimentQuick(t *testing.T) {
	cfg := Quick()
	table, res, err := GatewayExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if table == nil || len(table.Series) == 0 {
		t.Fatal("empty gateway table")
	}
	checkMachine(t, res.Machine)
	if got, want := len(res.Points), len(cfg.GatewayClients); got != want {
		t.Fatalf("points = %d, want %d", got, want)
	}
	for i, p := range res.Points {
		if p.Clients != cfg.GatewayClients[i] {
			t.Errorf("point %d: clients = %d, want %d", i, p.Clients, cfg.GatewayClients[i])
		}
		// Admission is provisioned for the sweep: every offered query and
		// both probe pairs are answered, nothing shed.
		if p.Answered != p.Queries {
			t.Errorf("point %d: answered %d of %d", i, p.Answered, p.Queries)
		}
		if p.Shed != 0 {
			t.Errorf("point %d: shed %d under a provisioned bucket", i, p.Shed)
		}
		// 6 distinct queries across clients×20 requests: the miss share is
		// bounded by refreshes, so the hit rate must stay high.
		if p.HitRate < 0.9 {
			t.Errorf("point %d: hit rate %.3f below 0.9 on a duplicate-heavy pool", i, p.HitRate)
		}
		if !p.InvalidationProven {
			t.Errorf("point %d: install did not invalidate the touched entry", i)
		}
		if p.Installs == 0 || p.Invalidated == 0 {
			t.Errorf("point %d: installs=%d invalidated=%d, want both nonzero", i, p.Installs, p.Invalidated)
		}
		if p.QPS <= 0 || p.P99Micros <= 0 || p.P50Micros > p.P99Micros {
			t.Errorf("point %d: implausible timings qps=%g p50=%gus p99=%gus", i, p.QPS, p.P50Micros, p.P99Micros)
		}
	}
}
