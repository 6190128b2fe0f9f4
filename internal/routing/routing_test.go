package routing

import (
	"math/rand"
	"testing"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/core"
	"p2psum/internal/data"
	"p2psum/internal/p2p"
	"p2psum/internal/query"
	"p2psum/internal/saintetiq"
	"p2psum/internal/sim"
	"p2psum/internal/topology"
	"p2psum/internal/workload"
)

func buildSystem(t *testing.T, n, sps int, seed int64, cfg core.Config) (*core.System, *sim.Engine) {
	t.Helper()
	g, err := topology.BarabasiAlbert(n, 2, nil, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New()
	net := p2p.NewNetwork(e, g, seed)
	sys, err := core.NewSystem(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.ElectSummaryPeers(sps)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	return sys, e
}

func oracleFor(sys *core.System, seed int64, frac float64) *Oracle {
	rng := rand.New(rand.NewSource(seed))
	ms := workload.MatchSet(rng, sys.Transport().Len(), frac)
	cur := make(map[p2p.NodeID]bool, len(ms))
	for id := range ms {
		cur[p2p.NodeID(id)] = true
	}
	return &Oracle{Current: cur}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{Balanced: "balanced", Precise: "precise", MaxRecall: "max-recall", Mode(9): "?"} {
		if m.String() != want {
			t.Errorf("Mode(%d) = %q", int(m), m.String())
		}
	}
}

func TestSQRouteFindsAllWithPerfectSummaries(t *testing.T) {
	sys, _ := buildSystem(t, 400, 10, 1, core.DefaultConfig())
	oracle := oracleFor(sys, 2, 0.10)
	r := NewSQRouter(sys)
	res, err := r.Route(5, oracle, 0) // total lookup
	if err != nil {
		t.Fatal(err)
	}
	want := len(oracle.Current)
	if res.Results != want {
		t.Errorf("total lookup found %d of %d matches", res.Results, want)
	}
	if res.Accuracy.Recall() != 1 || res.Accuracy.Precision() != 1 {
		t.Errorf("perfect summaries gave precision %g recall %g", res.Accuracy.Precision(), res.Accuracy.Recall())
	}
	if res.DomainsVisited < 2 {
		t.Errorf("total lookup visited %d domains", res.DomainsVisited)
	}
	if res.Messages <= 0 {
		t.Error("no messages counted")
	}
	// Breakdown sums to total.
	var sum int64
	for _, v := range res.Breakdown {
		sum += v
	}
	if sum != res.Messages {
		t.Errorf("breakdown sums to %d, total is %d", sum, res.Messages)
	}
}

func TestSQRoutePartialLookupStopsEarly(t *testing.T) {
	sys, _ := buildSystem(t, 400, 10, 3, core.DefaultConfig())
	oracle := oracleFor(sys, 4, 0.10)
	r := NewSQRouter(sys)
	full, err := r.Route(5, oracle, 0)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := r.Route(5, oracle, 3)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Results < 3 {
		t.Errorf("partial lookup found %d, want >= 3", partial.Results)
	}
	if partial.Messages >= full.Messages {
		t.Errorf("partial lookup (%d msgs) not cheaper than total (%d msgs)",
			partial.Messages, full.Messages)
	}
	if partial.DomainsVisited > full.DomainsVisited {
		t.Error("partial lookup visited more domains than total")
	}
}

func TestSQRouteNoDomain(t *testing.T) {
	g, err := topology.BarabasiAlbert(20, 2, nil, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	net := p2p.NewNetwork(sim.New(), g, 5)
	sys, err := core.NewSystem(net, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// No construction: no domains.
	r := NewSQRouter(sys)
	if _, err := r.Route(3, &Oracle{Current: map[p2p.NodeID]bool{}}, 0); err == nil {
		t.Error("routing without domains accepted")
	}
}

func TestRoutingModesTradeoff(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Alpha = 0.99 // keep staleness, no reconciliation
	sys, e := buildSystem(t, 300, 6, 6, cfg)
	oracle := oracleFor(sys, 7, 0.10)

	// Make a third of the matching peers stale (graceful leaves).
	var stale []p2p.NodeID
	i := 0
	for id := range oracle.Current {
		if i%3 == 0 && sys.Peer(id).Role() == core.RoleClient {
			sys.Leave(id, true)
			stale = append(stale, id)
		}
		i++
	}
	e.Run()
	if len(stale) == 0 {
		t.Skip("no stale peers produced")
	}

	route := func(m Mode) *Result {
		r := NewSQRouter(sys)
		r.Mode = m
		res, err := r.Route(pickClient(t, sys), oracle, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	precise := route(Precise)
	balanced := route(Balanced)
	recall := route(MaxRecall)

	// Precise mode: no false positives at all.
	if precise.Accuracy.FalsePositives != 0 {
		t.Errorf("precise mode produced %d false positives", precise.Accuracy.FalsePositives)
	}
	// MaxRecall mode: no false negatives (every stale partner queried).
	if recall.Accuracy.FalseNegatives > balanced.Accuracy.FalseNegatives {
		t.Errorf("max-recall FNs (%d) exceed balanced (%d)",
			recall.Accuracy.FalseNegatives, balanced.Accuracy.FalseNegatives)
	}
	// MaxRecall pays more messages than precise.
	if recall.Messages < precise.Messages {
		t.Errorf("max-recall (%d msgs) cheaper than precise (%d)", recall.Messages, precise.Messages)
	}
}

func pickClient(t *testing.T, sys *core.System) p2p.NodeID {
	t.Helper()
	for _, id := range sys.Transport().OnlineIDs() {
		if sys.Peer(id).Role() == core.RoleClient && sys.DomainOf(id) >= 0 {
			return id
		}
	}
	t.Fatal("no client found")
	return 0
}

func TestFloodQueryBaseline(t *testing.T) {
	sys, _ := buildSystem(t, 500, 10, 8, core.DefaultConfig())
	net := sys.Transport()
	oracle := oracleFor(sys, 9, 0.10)
	res := FloodQuery(net, 5, 3, oracle, -1)
	if res.Results == 0 {
		t.Error("flooding found nothing on a BA graph with hubs")
	}
	if res.Messages < int64(res.Results) {
		t.Error("message count below response count")
	}
	// Flooding has perfect precision (only matching peers respond) but
	// bounded recall (TTL horizon).
	if res.Accuracy.FalsePositives != 0 {
		t.Error("flooding produced false positives")
	}
}

func TestCentralizedQueryBaseline(t *testing.T) {
	sys, _ := buildSystem(t, 200, 5, 10, core.DefaultConfig())
	oracle := oracleFor(sys, 11, 0.10)
	res := CentralizedQuery(sys.Transport(), oracle)
	want := len(oracle.Current)
	if res.Results != want {
		t.Errorf("centralized found %d of %d", res.Results, want)
	}
	// 1 + matches + responses.
	if res.Messages != int64(1+2*want) {
		t.Errorf("centralized cost = %d, want %d", res.Messages, 1+2*want)
	}
	if res.Accuracy.Precision() != 1 || res.Accuracy.Recall() != 1 {
		t.Error("complete index must be exact")
	}
}

// TestFigure7Ordering is the integration-level headline check: on the same
// network and workload, centralized < SQ < flooding for message cost, while
// SQ achieves full recall and flooding does not.
func TestFigure7Ordering(t *testing.T) {
	sys, _ := buildSystem(t, 1000, 10, 12, core.DefaultConfig())
	net := sys.Transport()
	oracle := oracleFor(sys, 13, 0.10)

	central := CentralizedQuery(net, oracle)
	r := NewSQRouter(sys)
	sq, err := r.Route(pickClient(t, sys), oracle, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Like SQ, flooding must satisfy the total-lookup stop condition.
	flood := FloodQuery(net, pickClient(t, sys), 3, oracle, len(oracle.Current))

	if !(central.Messages < sq.Messages) {
		t.Errorf("centralized (%d) not cheaper than SQ (%d)", central.Messages, sq.Messages)
	}
	if !(sq.Messages < flood.Messages) {
		t.Errorf("SQ (%d) not cheaper than flooding (%d)", sq.Messages, flood.Messages)
	}
	if sq.Accuracy.Recall() != 1 {
		t.Errorf("SQ recall = %g", sq.Accuracy.Recall())
	}
	if flood.Accuracy.Recall() >= 1 && flood.Results == len(oracle.Current) {
		t.Log("flooding reached everything (possible on small graphs); ordering still checked")
	}
}

func TestRouteDataApproximateAnswer(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.DataLevel = true
	cfg.BK = bk.Medical()

	g, err := topology.BarabasiAlbert(30, 2, nil, rand.New(rand.NewSource(14)))
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New()
	net := p2p.NewNetwork(e, g, 14)
	sys, err := core.NewSystem(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := cells.NewMapper(cfg.BK, data.PatientSchema())
	if err != nil {
		t.Fatal(err)
	}
	gen := data.NewPatientGenerator(15, nil)
	for i := 0; i < 30; i++ {
		st := cells.NewStore(mapper)
		st.AddRelation(gen.Generate("db", 30))
		tr := saintetiq.New(cfg.BK, cfg.TreeCfg)
		if err := tr.IncorporateStore(st, saintetiq.PeerID(i)); err != nil {
			t.Fatal(err)
		}
		sys.SetLocalTree(p2p.NodeID(i), tr)
	}
	sys.ElectSummaryPeers(1)
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}

	q := query.Query{
		Select: []string{"age"},
		Where:  []query.Clause{{Attr: "disease", Labels: []string{"measles"}}},
	}
	da, err := RouteData(sys, 3, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(da.Peers) == 0 {
		t.Fatal("no peers localized for a common disease")
	}
	if da.Answer == nil || len(da.Answer.Classes) == 0 {
		t.Fatal("no approximate answer")
	}
	// Measles patients are children in the generator: answer mentions
	// young.
	found := false
	for _, c := range da.Answer.Classes {
		for _, lab := range c.Answers.Get("age") {
			if lab == "young" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("measles answer misses 'young': %v", da.Answer)
	}
	if da.Visited <= 0 {
		t.Error("selection visited no nodes")
	}
}

func TestRouteDataErrors(t *testing.T) {
	sys, _ := buildSystem(t, 50, 2, 16, core.DefaultConfig()) // protocol level
	q := query.Query{Where: []query.Clause{{Attr: "disease", Labels: []string{"malaria"}}}}
	if _, err := RouteData(sys, 3, q); err == nil {
		t.Error("data routing without data level accepted")
	}
}

func TestPeersOf(t *testing.T) {
	got := PeersOf([]saintetiq.PeerID{3, 1})
	if len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Errorf("PeersOf = %v", got)
	}
}

func TestRunWorkload(t *testing.T) {
	sys, _ := buildSystem(t, 300, 6, 20, core.DefaultConfig())
	router := NewSQRouter(sys)
	res, err := RunWorkload(sys, router, WorkloadOptions{Queries: 10, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 10 || res.SQMessages.N() != 10 {
		t.Fatalf("aggregation wrong: %+v", res)
	}
	if res.Accuracy.Recall() != 1 {
		t.Errorf("fresh-summary workload recall = %g", res.Accuracy.Recall())
	}
	if res.SQMessages.Mean() <= res.CentralCost.Mean() {
		t.Error("SQ cheaper than the ideal index?")
	}
	if res.SQMessages.Mean() >= res.FloodMessages.Mean() {
		t.Errorf("SQ (%g) not cheaper than flooding (%g)", res.SQMessages.Mean(), res.FloodMessages.Mean())
	}
	if res.String() == "" {
		t.Error("String empty")
	}
	if _, err := RunWorkload(sys, router, WorkloadOptions{Queries: 0}); err == nil {
		t.Error("zero queries accepted")
	}
}

func TestRunWorkloadLocality(t *testing.T) {
	sys, _ := buildSystem(t, 300, 6, 22, core.DefaultConfig())
	router := NewSQRouter(sys)
	res, err := RunWorkload(sys, router, WorkloadOptions{Queries: 8, Seed: 23, Locality: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	// Group locality concentrates matches; SQ must still find them all.
	if res.Accuracy.Recall() != 1 {
		t.Errorf("clustered workload recall = %g", res.Accuracy.Recall())
	}
}
