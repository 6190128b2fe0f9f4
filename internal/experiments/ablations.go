package experiments

import (
	"fmt"
	"math/rand"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/core"
	"p2psum/internal/data"
	"p2psum/internal/p2p"
	"p2psum/internal/par"
	"p2psum/internal/query"
	"p2psum/internal/routing"
	"p2psum/internal/saintetiq"
	"p2psum/internal/sim"
	"p2psum/internal/stats"
	"p2psum/internal/topology"
	"p2psum/internal/workload"
)

func newTree() *saintetiq.Tree {
	return saintetiq.New(bk.Medical(), saintetiq.DefaultConfig())
}

// AblationMaintenance compares maintenance strategies at α=0.3: the paper's
// deferred push/pull against the merge-on-join variant and an eager
// (α=0.05) configuration, reporting both traffic and staleness so the §6.1
// trade-off is visible.
func AblationMaintenance(cfg Config) (*stats.Table, error) {
	type variant struct {
		name   string
		alpha  float64
		sysCfg core.Config
	}
	base := core.DefaultConfig()
	mergeJoin := core.DefaultConfig()
	mergeJoin.MergeOnJoin = true
	variants := []variant{
		{"push-pull a=0.3", 0.3, base},
		{"merge-on-join", 0.3, mergeJoin},
		{"eager a=0.05", 0.05, base},
	}
	// Fan the (variant × size) grid across the worker pool; every cell is
	// independently seeded, so results match the sequential sweep exactly.
	type cell struct {
		v variant
		n int
	}
	var grid []cell
	for _, v := range variants {
		for _, n := range cfg.DomainSizes {
			grid = append(grid, cell{v, n})
		}
	}
	all := make([]*domainObservation, len(grid))
	if err := par.ForEach(cfg.Workers, len(grid), func(i int) error {
		var runErr error
		all[i], runErr = runDomain(cfg, grid[i].n, grid[i].v.alpha, cfg.Seed+int64(grid[i].n), routing.Balanced, grid[i].v.sysCfg)
		return runErr
	}); err != nil {
		return nil, err
	}
	msgs := make([]*stats.Series, len(variants))
	stale := make([]*stats.Series, len(variants))
	for i, v := range variants {
		msgs[i] = &stats.Series{Name: "msg/node/h " + v.name}
		stale[i] = &stats.Series{Name: "stale% " + v.name}
		for ni, n := range cfg.DomainSizes {
			obs := all[i*len(cfg.DomainSizes)+ni]
			msgs[i].Add(float64(n), obs.perNodePerHour)
			stale[i].Add(float64(n), 100*obs.staleAtQuery.Mean())
		}
	}
	t := stats.NewTable("Ablation: maintenance strategies", "domain size", append(msgs, stale...)...)
	t.AddNote("eager reconciliation buys freshness with traffic; merge-on-join trades reconciliation pulls for immediate merges")
	return t, nil
}

// AblationRoutingModes compares the §6.1.2 recall/precision trade-off under
// churn: V = PQ (balanced), V = PQ ∩ Pfresh (precise), V = PQ ∪ Pold
// (max recall).
func AblationRoutingModes(cfg Config) (*stats.Table, error) {
	n := cfg.DomainSizes[len(cfg.DomainSizes)-1]
	modes := []routing.Mode{routing.Balanced, routing.Precise, routing.MaxRecall}

	precision := &stats.Series{Name: "precision"}
	recall := &stats.Series{Name: "recall"}
	messages := &stats.Series{Name: "messages"}

	for i, mode := range modes {
		g, err := topology.BarabasiAlbert(n, 2, nil, rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			return nil, err
		}
		engine := sim.New()
		net := p2p.NewNetwork(engine, g, cfg.Seed)
		sysCfg := core.DefaultConfig()
		sysCfg.Alpha = 0.99 // hold staleness so the trade-off is visible
		sys, err := core.NewSystem(net, sysCfg)
		if err != nil {
			return nil, err
		}
		sys.ElectSummaryPeers(1)
		if err := sys.Construct(); err != nil {
			return nil, err
		}

		// Make a third of the peers stale through graceful departures and
		// rejoins.
		rng := rand.New(rand.NewSource(cfg.Seed + 5))
		sp := sys.SummaryPeers()[0]
		partners := sys.Peer(sp).CooperationList().Partners()
		for j, id := range partners {
			if j%3 == 0 {
				sys.Leave(id, true)
			}
		}
		engine.Run()
		for j, id := range partners {
			if j%6 == 0 {
				sys.Join(id)
			}
		}
		engine.Run()

		var acc stats.Accuracy
		var msgSum float64
		for q := 0; q < cfg.QueriesPerPoint; q++ {
			ms := workload.MatchSet(rng, n, cfg.HitFraction)
			oracle := &routing.Oracle{Current: make(map[p2p.NodeID]bool, len(ms))}
			for id := range ms {
				oracle.Current[p2p.NodeID(id)] = true
			}
			router := routing.NewSQRouter(sys)
			router.Mode = mode
			res, err := router.Route(pickOnlineClient(sys, rng), oracle, 0)
			if err != nil {
				return nil, err
			}
			acc.Merge(res.Accuracy)
			msgSum += float64(res.Messages)
		}
		x := float64(i)
		precision.Add(x, acc.Precision())
		recall.Add(x, acc.Recall())
		messages.Add(x, msgSum/float64(cfg.QueriesPerPoint))
	}
	t := stats.NewTable("Ablation: routing modes (0=balanced 1=precise 2=max-recall)", "mode", precision, recall, messages)
	t.AddNote("precise mode trades recall for zero false positives; max-recall queries every stale partner")
	return t, nil
}

// AblationWalks compares the find protocol's selective walk against a blind
// random walk: hops needed to locate a summary-peer neighborhood on BA
// overlays of growing size (§4.1, after Adamic et al.).
func AblationWalks(cfg Config) (*stats.Table, error) {
	selective := &stats.Series{Name: "selective walk hops"}
	blind := &stats.Series{Name: "random walk hops"}
	failS := &stats.Series{Name: "selective failures"}
	failR := &stats.Series{Name: "random failures"}

	var sizes []int
	for _, n := range cfg.NetworkSizes {
		if n >= 32 {
			sizes = append(sizes, n)
		}
	}
	type walkPoint struct {
		sel, blind, sf, rf float64
	}
	points := make([]walkPoint, len(sizes))
	if err := par.ForEach(cfg.Workers, len(sizes), func(i int) error {
		n := sizes[i]
		g, err := topology.BarabasiAlbert(n, 2, nil, rand.New(rand.NewSource(cfg.Seed+int64(n))))
		if err != nil {
			return err
		}
		net := p2p.NewNetwork(sim.New(), g, cfg.Seed+int64(n))
		// Target set: the top-degree nodes (where summary peers live).
		spSet := make(map[p2p.NodeID]bool)
		sysCfgTargets := topDegree(g, 5)
		for _, id := range sysCfgTargets {
			spSet[id] = true
		}
		accept := func(id p2p.NodeID) bool { return spSet[id] }
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n) + 11))
		budget := 2 * n

		sh, rh := stats.NewRunning(), stats.NewRunning()
		var sf, rf float64
		trials := 30
		for t := 0; t < trials; t++ {
			src := p2p.NodeID(rng.Intn(n))
			if spSet[src] {
				continue
			}
			if res := net.SelectiveWalk("walk-s", src, budget, accept); res.Found >= 0 {
				sh.Observe(float64(res.Messages))
			} else {
				sf++
			}
			if res := net.RandomWalk("walk-r", src, budget, accept); res.Found >= 0 {
				rh.Observe(float64(res.Messages))
			} else {
				rf++
			}
		}
		points[i] = walkPoint{sel: sh.Mean(), blind: rh.Mean(), sf: sf, rf: rf}
		return nil
	}); err != nil {
		return nil, err
	}
	for i, n := range sizes {
		selective.Add(float64(n), points[i].sel)
		blind.Add(float64(n), points[i].blind)
		failS.Add(float64(n), points[i].sf)
		failR.Add(float64(n), points[i].rf)
	}
	t := stats.NewTable("Ablation: selective vs random walk (find protocol)", "peers", selective, blind, failS, failR)
	t.AddNote("the selective walk climbs the degree gradient straight to the hubs hosting summary peers")
	return t, nil
}

func topDegree(g *topology.Graph, k int) []p2p.NodeID {
	type nd struct {
		id  int
		deg int
	}
	nds := make([]nd, g.Len())
	for i := range nds {
		nds[i] = nd{i, g.Degree(i)}
	}
	for i := 0; i < k && i < len(nds); i++ {
		best := i
		for j := i + 1; j < len(nds); j++ {
			if nds[j].deg > nds[best].deg || (nds[j].deg == nds[best].deg && nds[j].id < nds[best].id) {
				best = j
			}
		}
		nds[i], nds[best] = nds[best], nds[i]
	}
	out := make([]p2p.NodeID, 0, k)
	for i := 0; i < k && i < len(nds); i++ {
		out = append(out, p2p.NodeID(nds[i].id))
	}
	return out
}

func pickOnlineClient(sys *core.System, rng *rand.Rand) p2p.NodeID {
	ids := sys.Transport().OnlineIDs()
	for tries := 0; tries < 100; tries++ {
		id := ids[rng.Intn(len(ids))]
		if sys.Peer(id).Role() == core.RoleClient && sys.DomainOf(id) >= 0 {
			return id
		}
	}
	return ids[0]
}

// AblationConstructionTTL sweeps the sumpeer broadcast TTL (the paper
// suggests TTL = 2, §4.1): a larger radius covers more peers directly but
// floods more; a smaller one shifts work to the find walks of the
// stragglers. Coverage is restored to 1.0 by the walks in every case; the
// trade-off is pure traffic.
func AblationConstructionTTL(cfg Config) (*stats.Table, error) {
	n := cfg.DomainSizes[len(cfg.DomainSizes)-1]
	broadcast := &stats.Series{Name: "sumpeer msgs"}
	localsum := &stats.Series{Name: "localsum msgs"}
	walks := &stats.Series{Name: "find msgs"}
	total := &stats.Series{Name: "total msgs"}

	for _, ttl := range []int{1, 2, 3, 4} {
		g, err := topology.BarabasiAlbert(n, 2, nil, rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			return nil, err
		}
		net := p2p.NewNetwork(sim.New(), g, cfg.Seed)
		sysCfg := core.DefaultConfig()
		sysCfg.ConstructionTTL = ttl
		sys, err := core.NewSystem(net, sysCfg)
		if err != nil {
			return nil, err
		}
		sys.ElectSummaryPeers(10)
		if err := sys.Construct(); err != nil {
			return nil, err
		}
		if sys.Coverage() != 1 {
			return nil, errIncompleteCoverage
		}
		c := net.Counter()
		x := float64(ttl)
		broadcast.Add(x, float64(c.Get(core.MsgSumpeer)))
		localsum.Add(x, float64(c.Get(core.MsgLocalsum)))
		walks.Add(x, float64(c.Get(core.MsgFind)))
		total.Add(x, float64(c.TotalOf(core.MsgSumpeer, core.MsgLocalsum, core.MsgFind, core.MsgDrop)))
	}
	t := stats.NewTable("Ablation: construction TTL (10 domains)", "TTL", broadcast, localsum, walks, total)
	t.AddNote("TTL=2 (the paper's choice) balances broadcast reach against find-walk fallback")
	return t, nil
}

var errIncompleteCoverage = fmt.Errorf("experiments: construction left peers uncovered")

// AblationUnavailable compares the two §4.3 alternatives for departed
// peers in two-bit mode: keeping their descriptions for approximate
// answering (first alternative) versus expiring them and accelerating
// reconciliation (second alternative, the paper's choice, also the one-bit
// behaviour).
func AblationUnavailable(cfg Config) (*stats.Table, error) {
	type variant struct {
		name string
		mk   func() core.Config
	}
	variants := []variant{
		{"expire (paper)", func() core.Config {
			c := core.DefaultConfig()
			c.Mode = core.TwoBit
			return c
		}},
		{"keep descriptions", func() core.Config {
			c := core.DefaultConfig()
			c.Mode = core.TwoBit
			c.KeepUnavailable = true
			return c
		}},
	}
	recon := &stats.Series{Name: "reconciliations"}
	msgs := &stats.Series{Name: "msg/node/h"}
	stale := &stats.Series{Name: "stale% at query"}
	n := cfg.DomainSizes[0]
	for i, v := range variants {
		obs, err := runDomain(cfg, n, 0.3, cfg.Seed, routing.Balanced, v.mk())
		if err != nil {
			return nil, err
		}
		x := float64(i)
		recon.Add(x, float64(obs.reconciles))
		msgs.Add(x, obs.perNodePerHour)
		stale.Add(x, 100*obs.staleAtQuery.Mean())
	}
	t := stats.NewTable("Ablation: departed-peer descriptions (0=expire 1=keep)", "alternative", recon, msgs, stale)
	t.AddNote("keeping descriptions defers reconciliations but leaves unavailable data in query answers")
	return t, nil
}

// AblationArity sweeps the hierarchy's arity cap (the B of the §6.1.1
// storage model): smaller arities give deeper, more specific trees; larger
// ones flatten the hierarchy. Reported per configuration: build cost
// (structural operations), shape, quality metrics and query work.
func AblationArity(cfg Config) (*stats.Table, error) {
	nodes := &stats.Series{Name: "nodes"}
	depth := &stats.Series{Name: "depth"}
	ops := &stats.Series{Name: "structural ops"}
	homog := &stats.Series{Name: "homogeneity"}
	visited := &stats.Series{Name: "query visits"}

	mapper, err := cells.NewMapper(bk.Medical(), data.PatientSchema())
	if err != nil {
		return nil, err
	}
	store := cells.NewStore(mapper)
	store.AddRelation(data.NewPatientGenerator(cfg.Seed, nil).Generate("r", 2500))
	q := query.Query{Where: []query.Clause{
		{Attr: "disease", Labels: []string{"malaria", "diabetes"}},
	}}

	for _, b := range []int{3, 4, 6, 8, 12} {
		tcfg := saintetiq.DefaultConfig()
		tcfg.MaxChildren = b
		tr := saintetiq.New(bk.Medical(), tcfg)
		if err := tr.IncorporateStore(store, 1); err != nil {
			return nil, err
		}
		if err := tr.Validate(); err != nil {
			return nil, err
		}
		qual := tr.Measure()
		sel, err := query.Select(tr, q)
		if err != nil {
			return nil, err
		}
		x := float64(b)
		nodes.Add(x, float64(qual.Nodes))
		depth.Add(x, float64(qual.Depth))
		ops.Add(x, float64(tr.Stats().Structural()))
		homog.Add(x, qual.Homogeneity)
		visited.Add(x, float64(sel.Visited))
	}
	t := stats.NewTable("Ablation: hierarchy arity cap B", "max children", nodes, depth, ops, homog, visited)
	t.Decimal = 3
	t.AddNote("deeper trees (small B) cost more structure but keep nodes homogeneous; query work is stable across B")
	return t, nil
}

// AblationLocality tests the §5.2.2 group-locality assumption ("users tend
// to work in groups ... results are supposed to be nearby"): when a
// query's matches concentrate in a few domains, the inter-domain expansion
// terminates after visiting far fewer domains than under uniformly spread
// matches. Partial-lookup queries (Ct = half the matches) make the effect
// visible.
func AblationLocality(cfg Config) (*stats.Table, error) {
	n := 600
	g, err := topology.BarabasiAlbert(n, 2, nil, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	net := p2p.NewNetwork(sim.New(), g, cfg.Seed)
	sys, err := core.NewSystem(net, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	sys.ElectSummaryPeers(10)
	if err := sys.Construct(); err != nil {
		return nil, err
	}
	router := routing.NewSQRouter(sys)
	rng := rand.New(rand.NewSource(cfg.Seed + 3))

	domains := sys.SummaryPeers()
	members := make(map[p2p.NodeID][]p2p.NodeID, len(domains))
	for _, sp := range domains {
		members[sp] = sys.DomainMembers(sp)
	}

	msgs := &stats.Series{Name: "messages"}
	visits := &stats.Series{Name: "domains visited"}
	for i, clustered := range []bool{false, true} {
		m := stats.NewRunning()
		v := stats.NewRunning()
		for q := 0; q < cfg.QueriesPerPoint*3; q++ {
			oracle := &routing.Oracle{Current: make(map[p2p.NodeID]bool)}
			k := n / 10
			origin := p2p.NodeID(rng.Intn(n))
			if clustered {
				// Matches drawn from two domains, and - as the section 5.2.2
				// assumption goes - the originator belongs to the interest
				// group, so its own neighborhood is answer-rich.
				d1 := domains[rng.Intn(len(domains))]
				d2 := domains[rng.Intn(len(domains))]
				seen := make(map[p2p.NodeID]bool)
				var pool []p2p.NodeID
				for _, id := range append(append([]p2p.NodeID(nil), members[d1]...), members[d2]...) {
					if !seen[id] {
						seen[id] = true
						pool = append(pool, id)
					}
				}
				if k > len(pool) {
					k = len(pool)
				}
				for len(oracle.Current) < k {
					oracle.Current[pool[rng.Intn(len(pool))]] = true
				}
				origin = pool[rng.Intn(len(pool))]
			} else {
				for id := range workload.MatchSet(rng, n, 0.10) {
					oracle.Current[p2p.NodeID(id)] = true
				}
			}
			res, err := router.Route(origin, oracle, len(oracle.Current)/2)
			if err != nil {
				return nil, err
			}
			m.Observe(float64(res.Messages))
			v.Observe(float64(res.DomainsVisited))
		}
		x := float64(i)
		msgs.Add(x, m.Mean())
		visits.Add(x, v.Mean())
	}
	t := stats.NewTable("Ablation: group locality (0=uniform 1=clustered matches)", "workload", msgs, visits)
	t.AddNote("clustered matches terminate the §5.2.2 expansion after fewer domains, as the paper assumes")
	return t, nil
}
