package experiments

import (
	"fmt"
	"testing"
	"time"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/core"
	"p2psum/internal/data"
	"p2psum/internal/p2p"
	"p2psum/internal/saintetiq"
	"p2psum/internal/topology"
)

// The multi-domain reconciliation storm measures what the channel
// transport's sharded dispatcher buys: the paper's summary service is
// per-domain (§4 — every domain maintains its own global summary and
// reconciles independently), so with one dispatcher goroutine the domains'
// handler work serializes, and with one dispatcher per domain it runs in
// parallel. Every partner marks its local summary modified, each domain's
// ring reconciliation re-merges real SaintEtiQ hierarchies hop by hop, and
// the wall-clock time of the storm is the measurement.

// concurrencyPoint is one storm's measurement.
type concurrencyPoint struct {
	wallMS          float64
	reconciliations int
}

// concurrencyLocalTree summarizes `rows` generated patient records as one
// partner's local summary.
func concurrencyLocalTree(b *bk.BK, mapper *cells.Mapper, seed int64, rows int, peer saintetiq.PeerID) (*saintetiq.Tree, error) {
	st := cells.NewStore(mapper)
	st.AddRelation(data.NewPatientGenerator(seed, nil).Generate("r", rows))
	tr := saintetiq.New(b, saintetiq.DefaultConfig())
	if err := tr.IncorporateStore(st, peer); err != nil {
		return nil, err
	}
	return tr, nil
}

// runConcurrencyPoint drives one reconciliation storm over `domains`
// independent star domains on a channel transport with the given number of
// dispatch groups, and reports the storm's wall time.
func runConcurrencyPoint(cfg Config, domains, spokes, rows, rounds, dispatchers int) (concurrencyPoint, error) {
	var pt concurrencyPoint
	g, hubs := topology.DisjointStars(domains, spokes+1, 0.02)
	ct := p2p.NewChannelTransport(g, cfg.Seed, p2p.ChannelConfig{Dispatchers: dispatchers})
	defer ct.Close()

	b := bk.Medical()
	sysCfg := core.DefaultConfig()
	sysCfg.Alpha = 0.3
	sysCfg.DataLevel = true
	sysCfg.BK = b
	sysCfg.Shards = cfg.Shards
	sys, err := core.NewSystem(ct, sysCfg)
	if err != nil {
		return pt, err
	}
	mapper, err := cells.NewMapper(b, data.PatientSchema())
	if err != nil {
		return pt, err
	}
	for i := 0; i < ct.Len(); i++ {
		tr, err := concurrencyLocalTree(b, mapper, cfg.Seed+int64(i), rows, saintetiq.PeerID(i))
		if err != nil {
			return pt, err
		}
		sys.SetLocalTree(p2p.NodeID(i), tr)
	}
	ids := make([]p2p.NodeID, len(hubs))
	for i, h := range hubs {
		ids[i] = p2p.NodeID(h)
	}
	sys.AssignSummaryPeers(ids)
	if err := sys.Construct(); err != nil {
		return pt, err
	}

	// The storm: every spoke pushes a modification; each domain's ring
	// reconciliation re-merges its partners' hierarchies. With aligned
	// dispatch groups the rings of distinct domains run concurrently. The
	// whole wave goes through one Exec barrier (MarkModifiedAll) so the
	// measured time is the overlapping protocol work, not repeated
	// driver-side quiescing.
	var clients []p2p.NodeID
	for i := 0; i < ct.Len(); i++ {
		if sys.Peer(p2p.NodeID(i)).Role() == core.RoleClient {
			clients = append(clients, p2p.NodeID(i))
		}
	}
	start := time.Now()
	for r := 0; r < rounds; r++ {
		sys.MarkModifiedAll(clients)
		ct.Settle()
	}
	pt.wallMS = float64(time.Since(start).Microseconds()) / 1000
	pt.reconciliations = sys.Stats().Reconciliations
	return pt, nil
}

// BenchmarkMultiDomainReconcile measures the wall-clock time of one
// multi-domain reconciliation storm (8 independent domains, data-level
// ring merges of real SaintEtiQ hierarchies) at increasing dispatcher
// counts. storm-ms is the headline metric: it should fall as dispatchers
// grow, because each domain's ring runs on its own dispatch group.
func BenchmarkMultiDomainReconcile(b *testing.B) {
	cfg := Quick()
	cfg.Seed = 7
	for _, d := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("dispatchers=%d", d), func(b *testing.B) {
			var stormMS float64
			for i := 0; i < b.N; i++ {
				pt, err := runConcurrencyPoint(cfg, 8, 10, 30, 1, d)
				if err != nil {
					b.Fatal(err)
				}
				if pt.reconciliations == 0 {
					b.Fatal("storm triggered no reconciliation")
				}
				stormMS += pt.wallMS
			}
			b.ReportMetric(stormMS/float64(b.N), "storm-ms")
		})
	}
}
