package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/core"
	"p2psum/internal/data"
	"p2psum/internal/gateway"
	"p2psum/internal/p2p"
	"p2psum/internal/query"
	"p2psum/internal/saintetiq"
	"p2psum/internal/stats"
	"p2psum/internal/topology"
)

// The gateway experiment measures the serving edge under duplicate-heavy
// client load: one data-level star domain on the channel transport, its
// summary peer fronted by the query gateway, swept over client counts.
// Every client is an admission-controlled session firing queries drawn
// from a small pool (the regime the singleflight and the freshness cache
// exist for). Midway, a spoke re-summarizes new data and the triggered
// ring reconciliation installs a shard delta — the run then proves the
// generation-keyed contract with a probe pair: the touched entry must
// re-execute (invalidated), never serve stale, and the sweep reports the
// invalidation counters alongside throughput, hit rate, latency
// percentiles and admission drops.

// GatewayPoint is one client-count measurement.
type GatewayPoint struct {
	Clients int `json:"clients"`
	// Queries is the offered load (Clients × per-client share); Answered
	// excludes admission drops.
	Queries  int    `json:"queries"`
	Answered int    `json:"answered"`
	Shed     uint64 `json:"shed"`
	// QPS is answered queries per wall-clock second of the loaded phases.
	QPS float64 `json:"qps"`
	// HitRate is the fraction of answered queries served from a fresh
	// cache entry; Coalesced counts queries that joined another query's
	// upstream flight.
	HitRate   float64 `json:"hit_rate"`
	Coalesced uint64  `json:"coalesced"`
	// P50Micros / P99Micros are client-observed latency percentiles.
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
	// Installs / Invalidated report the mid-run reconciliation delta:
	// installs observed by the gateway and cache entries dropped on
	// generation mismatch.
	Installs    uint64 `json:"installs"`
	Invalidated uint64 `json:"invalidated"`
	// InvalidationProven: the probe pair around the install held — the
	// touched query hit before the install and re-executed right after
	// (generation-keyed entries are invalidated, not served stale).
	InvalidationProven bool `json:"invalidation_proven"`
}

// GatewayResult is the machine-readable outcome of the gateway experiment
// (serialized to BENCH_gateway.json by cmd/experiments).
type GatewayResult struct {
	Spokes    int   `json:"spokes"`
	Shards    int   `json:"shards"`
	Distinct  int   `json:"distinct_queries"`
	PerClient int   `json:"queries_per_client"`
	Seed      int64 `json:"seed"`
	Machine
	Points []GatewayPoint `json:"points"`
}

// gatewayDiseases is the duplicate-heavy query pool (and the spokes' data
// assignment): a handful of distinct queries shared by every client.
func gatewayDiseases(distinct int) []string {
	labels := bk.Medical().Attrs()[3].Labels()
	if distinct > len(labels) {
		distinct = len(labels)
	}
	return labels[:distinct]
}

// gatewayTree summarizes single-disease patient rows for one spoke.
func gatewayTree(b *bk.BK, mapper *cells.Mapper, disease string, seed int64, rows int, peer saintetiq.PeerID) (*saintetiq.Tree, error) {
	rng := rand.New(rand.NewSource(seed))
	rel := data.NewRelation("r", data.PatientSchema())
	for i := 0; i < rows; i++ {
		rel.MustInsert(data.Record{
			ID: fmt.Sprintf("%s-%d-%d", disease, seed, i),
			Values: []data.Value{
				data.NumValue(float64(rng.Intn(90))),
				data.StrValue([]string{"female", "male"}[rng.Intn(2)]),
				data.NumValue(15 + float64(rng.Intn(25))),
				data.StrValue(disease),
			},
		})
	}
	st := cells.NewStore(mapper)
	st.AddRelation(rel)
	tr := saintetiq.New(b, saintetiq.DefaultConfig())
	if err := tr.IncorporateStore(st, peer); err != nil {
		return nil, err
	}
	return tr, nil
}

// runGatewayPoint drives one client-count measurement.
func runGatewayPoint(cfg Config, clients, spokes, perClient, distinct int) (GatewayPoint, error) {
	pt := GatewayPoint{Clients: clients, Queries: clients * perClient}
	diseases := gatewayDiseases(distinct)

	// One star domain, each spoke carrying one disease's data.
	n := spokes + 1
	g := topology.NewGraph(n)
	for s := 1; s < n; s++ {
		if err := g.AddEdge(0, s, 0.01); err != nil {
			return pt, err
		}
	}
	g.Compact()
	ct := p2p.NewChannelTransport(g, cfg.Seed, p2p.ChannelConfig{})
	defer ct.Close()

	b := bk.Medical()
	sysCfg := core.DefaultConfig()
	sysCfg.Alpha = 0.05
	sysCfg.DataLevel = true
	sysCfg.BK = b
	// The in-process channel transport loses no frames, so the ring-loss
	// retransmit timer only misfires here: a 24-hop data-level merge ring
	// can outlive the default timeout on slow (race-instrumented) builds
	// and abort the reconciliation the experiment depends on.
	sysCfg.ReconcileTimeout = 100000
	sysCfg.Shards = cfg.Shards
	if sysCfg.Shards <= 1 {
		sysCfg.Shards = 4
	}
	sys, err := core.NewSystem(ct, sysCfg)
	if err != nil {
		return pt, err
	}
	mapper, err := cells.NewMapper(b, data.PatientSchema())
	if err != nil {
		return pt, err
	}
	for i := 0; i < n; i++ {
		tr, err := gatewayTree(b, mapper, diseases[i%len(diseases)], cfg.Seed+int64(i), 20, saintetiq.PeerID(i))
		if err != nil {
			return pt, err
		}
		sys.SetLocalTree(p2p.NodeID(i), tr)
	}
	sys.AssignSummaryPeers([]p2p.NodeID{0})
	if err := sys.Construct(); err != nil {
		return pt, err
	}
	ct.Settle()
	// Warm-up ring: make the resident store ring-built, so the mid-run
	// install below swaps only the shard whose content changes.
	sys.MarkModifiedAll([]p2p.NodeID{1, 2})
	ct.Settle()

	gw := gateway.NewForSystem(gateway.Config{Rate: 1e6}, sys, nil)
	const origin = p2p.NodeID(1)
	pool := make([]query.Query, len(diseases))
	for i, d := range diseases {
		pool[i] = query.Query{
			Select: []string{"age"},
			Where:  []query.Clause{{Attr: "disease", Labels: []string{d}}},
		}
	}

	var hits atomic.Uint64
	lats := make([][]time.Duration, clients)
	var loaded time.Duration
	// half fires every client's next `count` queries concurrently.
	half := func(count, round int) error {
		var wg sync.WaitGroup
		errs := make([]error, clients)
		start := time.Now()
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c := gw.Connect()
				defer c.Close()
				rng := rand.New(rand.NewSource(cfg.Seed + int64(round*clients+w)))
				for i := 0; i < count; i++ {
					q := pool[rng.Intn(len(pool))]
					t0 := time.Now()
					_, hit, err := c.Query(origin, q)
					if err != nil {
						errs[w] = err
						return
					}
					lats[w] = append(lats[w], time.Since(t0))
					if hit {
						hits.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
		loaded += time.Since(start)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	if err := half(perClient/2, 0); err != nil {
		return pt, err
	}

	// The mid-run shard delta: the probed disease's spoke re-summarizes
	// new rows; the ring installs a delta touching only its shard.
	probe := gw.Connect()
	defer probe.Close()
	probeQ := pool[0]
	if _, _, err := probe.Query(origin, probeQ); err != nil {
		return pt, err
	}
	_, warmHit, err := probe.Query(origin, probeQ)
	if err != nil {
		return pt, err
	}
	// Spokes are seeded diseases[i%len(diseases)], so the first spoke
	// carrying probeQ's disease (diseases[0]) is node len(diseases). The
	// second mark carries identical content — it only pushes the domain's
	// staleness across α, it swaps nothing extra.
	mod := p2p.NodeID(len(diseases))
	tr, err := gatewayTree(b, mapper, diseases[0], cfg.Seed+int64(n)+int64(clients), 20, saintetiq.PeerID(mod))
	if err != nil {
		return pt, err
	}
	sys.SetLocalTree(mod, tr)
	sys.MarkModifiedAll([]p2p.NodeID{mod, mod + 1})
	ct.Settle()
	_, staleHit, err := probe.Query(origin, probeQ)
	if err != nil {
		return pt, err
	}
	pt.InvalidationProven = warmHit && !staleHit

	if err := half(perClient-perClient/2, 1); err != nil {
		return pt, err
	}

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pt.Answered = len(all)
	if pt.Answered > 0 {
		pt.HitRate = float64(hits.Load()) / float64(pt.Answered)
		pt.P50Micros = float64(all[int(0.50*float64(pt.Answered-1))]) / float64(time.Microsecond)
		pt.P99Micros = float64(all[int(0.99*float64(pt.Answered-1))]) / float64(time.Microsecond)
	}
	if loaded > 0 {
		pt.QPS = float64(pt.Answered) / loaded.Seconds()
	}
	s := gw.Snapshot()
	pt.Shed = s.Shed
	pt.Coalesced = s.Coalesced
	pt.Installs = s.Installs
	pt.Invalidated = s.Invalidated
	return pt, nil
}

// GatewayExperiment sweeps the serving edge over cfg.GatewayClients and
// returns the table plus the machine-readable result. The rows are
// wall-clock measurements — not deterministic across runs; the stable
// signals are the hit rate (duplicate-heavy → near 1), the zero-stale
// probe, and the nonzero invalidation counters.
func GatewayExperiment(cfg Config) (*stats.Table, *GatewayResult, error) {
	const spokes, perClient, distinct = 24, 20, 6
	counts := cfg.GatewayClients
	if len(counts) == 0 {
		counts = []int{100, 1000, 10000}
	}
	res := &GatewayResult{
		Spokes: spokes, Shards: cfg.Shards, Distinct: distinct,
		PerClient: perClient, Seed: cfg.Seed, Machine: thisMachine(),
	}
	if res.Shards <= 1 {
		res.Shards = 4
	}
	qps := &stats.Series{Name: "qps"}
	hit := &stats.Series{Name: "hit rate %"}
	p99 := &stats.Series{Name: "p99 us"}
	shed := &stats.Series{Name: "shed"}
	for _, clients := range counts {
		pt, err := runGatewayPoint(cfg, clients, spokes, perClient, distinct)
		if err != nil {
			return nil, nil, err
		}
		if !pt.InvalidationProven {
			return nil, nil, fmt.Errorf("gateway experiment: clients=%d: install did not invalidate the touched entry", clients)
		}
		res.Points = append(res.Points, pt)
		qps.Add(float64(clients), pt.QPS)
		hit.Add(float64(clients), 100*pt.HitRate)
		p99.Add(float64(clients), pt.P99Micros)
		shed.Add(float64(clients), float64(pt.Shed))
	}
	t := stats.NewTable("Gateway: serving edge vs client count (duplicate-heavy workload)", "clients", qps, hit, p99, shed)
	t.Decimal = 1
	t.AddNote("one star domain, %d spokes, %d distinct queries, %d queries/client; mid-run shard delta installed per point", spokes, distinct, perClient)
	if len(res.Points) > 0 {
		last := res.Points[len(res.Points)-1]
		t.AddNote("every point proves generation-keyed invalidation (probe re-executed after the install, never stale); invalidated=%d installs=%d at the largest sweep point",
			last.Invalidated, last.Installs)
	}
	return t, res, nil
}
