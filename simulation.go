package p2psum

import (
	"math/rand"
	"sort"

	"p2psum/internal/core"
	"p2psum/internal/p2p"
	"p2psum/internal/routing"
	"p2psum/internal/sim"
	"p2psum/internal/topology"
	"p2psum/internal/workload"
)

// NodeID identifies an overlay node of a simulation.
type NodeID = p2p.NodeID

// RoutingMode selects the §6.1.2 recall/precision trade-off of the SQ
// router.
type RoutingMode = routing.Mode

// Routing modes.
const (
	// RouteBalanced queries PQ as derived from the global summary.
	RouteBalanced = routing.Balanced
	// RoutePrecise queries V = PQ ∩ Pfresh (no false positives).
	RoutePrecise = routing.Precise
	// RouteMaxRecall queries V = PQ ∪ Pold (no false negatives).
	RouteMaxRecall = routing.MaxRecall
)

// RouteResult is the outcome of routing one query.
type RouteResult = routing.Result

// DataAnswer is the outcome of a data-level domain query.
type DataAnswer = routing.DataAnswer

// Oracle supplies ground-truth matching for protocol-level queries.
type Oracle = routing.Oracle

// SimOptions configures a complete super-peer simulation.
type SimOptions struct {
	// Peers is the overlay size.
	Peers int
	// SummaryPeers is the number of domains (super-peers are elected by
	// degree, exploiting peer heterogeneity as §3.1 prescribes).
	SummaryPeers int
	// Alpha is the freshness threshold α of §6.1.1 (default 0.3).
	Alpha float64
	// Seed drives topology, latencies and protocol randomness.
	Seed int64
	// DataLevel ships real summaries in localsum/reconciliation messages;
	// it requires BK.
	DataLevel bool
	// BK is the common background knowledge for data-level runs.
	BK *BK
	// ConstructionTTL bounds the sumpeer broadcast (default 2, §4.1).
	ConstructionTTL int
	// MergeOnJoin enables the merge-at-join ablation (the paper defers
	// joining peers' summaries to the next reconciliation).
	MergeOnJoin bool
	// Topology selects the overlay model: TopologyBA (default, the
	// paper's power-law graph), TopologySmallWorld (Watts–Strogatz) or
	// TopologyWaxman (BRITE's flat random model).
	Topology TopologyModel
	// Transport selects the overlay substrate: TransportSim (default, the
	// deterministic discrete-event engine) or TransportChannel (the
	// concurrent real-time transport).
	Transport TransportKind
	// LossRate silently drops each unicast with this probability
	// (TransportChannel only; the event engine is lossless).
	LossRate float64
	// Shards partitions each domain's global summary across this many
	// independently lockable store shards (data level only): merges and
	// reconciliation deltas apply per shard and queries fan out across
	// shards. 0 or 1 keeps the paper's single-tree layout.
	Shards int
	// Dispatchers shards the channel transport's handler dispatch into
	// this many concurrently running groups (TransportChannel only; the
	// event engine is single-threaded by design). Construct maps every
	// domain onto one group, so independent domains reconcile and answer
	// in parallel while each domain's handlers stay serialized. 0 or 1
	// keeps the single-dispatcher layout.
	Dispatchers int
	// Regions shards the discrete-event engine into this many per-region
	// event queues advanced in conservative lockstep time windows
	// (TransportSim only). Construct maps every domain onto one region,
	// so intra-region events execute in parallel while runs stay
	// bit-identical to the single-heap engine. 0 or 1 keeps the
	// sequential engine.
	Regions int
}

// TransportKind names a Transport implementation.
type TransportKind int

// Transport kinds.
const (
	// TransportSim is the deterministic discrete-event transport — runs
	// are reproducible bit-for-bit given a seed.
	TransportSim TransportKind = iota
	// TransportChannel is the concurrent in-memory transport: goroutines
	// carry messages in real time with scaled per-link latencies and
	// optional packet loss. Not deterministic.
	TransportChannel
)

// TopologyModel names an overlay generator.
type TopologyModel int

// Overlay models.
const (
	// TopologyBA is the Barabási–Albert power-law model (avg degree ~4).
	TopologyBA TopologyModel = iota
	// TopologySmallWorld is the Watts–Strogatz model (k=4, beta=0.1).
	TopologySmallWorld
	// TopologyWaxman is the BRITE flat random model.
	TopologyWaxman
)

// Simulation is a complete summary-managed P2P network: a power-law
// overlay, a Transport (discrete-event or concurrent channel-based), the
// §4 management protocols and the §5 query routing.
type Simulation struct {
	opts   SimOptions
	engine *sim.Engine  // nil for TransportChannel and region-sharded runs
	shard  *sim.Sharded // non-nil only with Regions > 1
	net    p2p.Transport
	sys    *core.System
	router *routing.SQRouter
	rng    *rand.Rand
	built  bool
}

// NewSimulation builds the overlay and wires the protocol layer. Call
// Construct before querying.
func NewSimulation(opts SimOptions) (*Simulation, error) {
	if opts.Peers < 4 {
		return nil, guardf("p2psum: need at least 4 peers, got %d", opts.Peers)
	}
	if opts.SummaryPeers < 1 {
		opts.SummaryPeers = 1
	}
	if opts.Alpha == 0 {
		opts.Alpha = 0.3
	}
	if opts.ConstructionTTL == 0 {
		opts.ConstructionTTL = 2
	}
	if opts.Dispatchers < 0 {
		return nil, guardf("p2psum: Dispatchers %d must be >= 0", opts.Dispatchers)
	}
	if opts.Regions < 0 {
		return nil, guardf("p2psum: Regions %d must be >= 0", opts.Regions)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	var g *topology.Graph
	var err error
	switch opts.Topology {
	case TopologySmallWorld:
		g, err = topology.WattsStrogatz(opts.Peers, 4, 0.1, nil, rng)
	case TopologyWaxman:
		g, err = topology.Waxman(opts.Peers, 0.2, 0.15, nil, rng)
	default:
		g, err = topology.BarabasiAlbert(opts.Peers, 2, nil, rng)
	}
	if err != nil {
		return nil, err
	}
	var (
		engine *sim.Engine
		shard  *sim.Sharded
		net    p2p.Transport
	)
	switch opts.Transport {
	case TransportChannel:
		if opts.LossRate < 0 || opts.LossRate >= 1 {
			return nil, guardf("p2psum: LossRate %g out of [0,1)", opts.LossRate)
		}
		if opts.Regions > 1 {
			return nil, guardf("p2psum: Regions requires TransportSim")
		}
		ccfg := p2p.DefaultChannelConfig()
		ccfg.LossRate = opts.LossRate
		ccfg.Dispatchers = opts.Dispatchers
		net = p2p.NewChannelTransport(g, opts.Seed, ccfg)
	default:
		if opts.LossRate != 0 {
			return nil, guardf("p2psum: LossRate requires TransportChannel")
		}
		if opts.Dispatchers > 1 {
			return nil, guardf("p2psum: Dispatchers requires TransportChannel")
		}
		if opts.Regions > 1 {
			snet, err := p2p.NewShardedNetwork(g, opts.Seed, opts.Regions)
			if err != nil {
				return nil, err
			}
			shard = snet.Sharded()
			net = snet
		} else {
			engine = sim.New()
			net = p2p.NewNetwork(engine, g, opts.Seed)
		}
	}
	cfg := core.DefaultConfig()
	cfg.Alpha = opts.Alpha
	cfg.ConstructionTTL = opts.ConstructionTTL
	cfg.DataLevel = opts.DataLevel
	cfg.BK = opts.BK
	cfg.MergeOnJoin = opts.MergeOnJoin
	cfg.Shards = opts.Shards
	sys, err := core.NewSystem(net, cfg)
	if err != nil {
		return nil, err
	}
	return &Simulation{
		opts:   opts,
		engine: engine,
		shard:  shard,
		net:    net,
		sys:    sys,
		router: routing.NewSQRouter(sys),
		rng:    rand.New(rand.NewSource(opts.Seed + 1)),
	}, nil
}

// SetLocalData summarizes a relation as the node's local database (data
// level; call before Construct).
func (s *Simulation) SetLocalData(id NodeID, rel *Relation) error {
	if !s.opts.DataLevel {
		return guardf("p2psum: SetLocalData requires DataLevel")
	}
	t, err := Summarize(rel, s.opts.BK, PeerID(id))
	if err != nil {
		return err
	}
	s.sys.SetLocalTree(id, t)
	return nil
}

// Construct elects the summary peers and runs the §4.1 domain
// construction to quiescence.
func (s *Simulation) Construct() error {
	s.sys.ElectSummaryPeers(s.opts.SummaryPeers)
	if err := s.sys.Construct(); err != nil {
		return err
	}
	s.built = true
	return nil
}

// SummaryPeerIDs returns the elected super-peers.
func (s *Simulation) SummaryPeerIDs() []NodeID { return s.sys.SummaryPeers() }

// DomainOf returns the summary peer of a node (-1 when none).
func (s *Simulation) DomainOf(id NodeID) NodeID { return s.sys.DomainOf(id) }

// DomainMembers returns the online members of a domain, super-peer first.
func (s *Simulation) DomainMembers(sp NodeID) []NodeID { return s.sys.DomainMembers(sp) }

// Coverage returns the fraction of online peers inside a domain.
func (s *Simulation) Coverage() float64 { return s.sys.Coverage() }

// GlobalSummary returns a domain's global summary as one hierarchy (data
// level). With SimOptions.Shards > 1 this materializes a merged snapshot
// per call; prefer SummaryStore for repeated querying.
func (s *Simulation) GlobalSummary(sp NodeID) *Tree { return s.sys.Peer(sp).GlobalSummary() }

// SummaryStore returns a domain's global-summary store (data level; nil at
// protocol level). Queries through query-level helpers fan out across its
// shards without materializing a combined tree.
func (s *Simulation) SummaryStore(sp NodeID) SummaryStore { return s.sys.Peer(sp).SummaryStore() }

// StaleFraction returns Σv/|CL| for a domain's cooperation list.
func (s *Simulation) StaleFraction(sp NodeID) float64 {
	cl := s.sys.Peer(sp).CooperationList()
	if cl == nil {
		return 0
	}
	return cl.StaleFraction()
}

// Leave disconnects a peer; graceful departures notify the summary peer
// (§4.3).
func (s *Simulation) Leave(id NodeID, graceful bool) {
	s.sys.Leave(id, graceful)
	s.net.Settle()
}

// Join reconnects a peer (§4.3).
func (s *Simulation) Join(id NodeID) {
	s.sys.Join(id)
	s.net.Settle()
}

// MarkModified signals a local-summary modification: a push message
// travels to the summary peer and may trigger a reconciliation (§4.2).
func (s *Simulation) MarkModified(id NodeID) {
	s.sys.MarkModified(id)
	s.net.Settle()
}

// RunChurn simulates session churn for the given number of hours using the
// paper's lognormal lifetimes (mean 3 h, median 1 h). On the discrete-event
// transport the sessions are scheduled in virtual time; on the channel
// transport the same session plan is applied in timestamp order, settling
// the network between events (virtual inter-event time is collapsed — the
// protocol sees the identical join/leave sequence).
func (s *Simulation) RunChurn(hours float64, gracefulProb float64) {
	churn := workload.Churn{Lifetimes: workload.PaperLifetimes(), OfflineFactor: 0.5}
	sps := make(map[NodeID]bool)
	for _, sp := range s.sys.SummaryPeers() {
		sps[sp] = true
	}
	type churnEvent struct {
		at sim.Time
		id NodeID
		fn func()
	}
	var events []churnEvent
	for _, sess := range churn.Plan(s.rng, s.opts.Peers, sim.Hours(hours)) {
		id := NodeID(sess.Peer)
		if sps[id] {
			continue
		}
		if sess.Start > 0 {
			events = append(events, churnEvent{sess.Start, id, func() { s.sys.Join(id) }})
		}
		if sess.End < sim.Hours(hours) {
			graceful := s.rng.Float64() < gracefulProb
			events = append(events, churnEvent{sess.End, id, func() { s.sys.Leave(id, graceful) }})
		}
	}
	if s.engine != nil {
		horizon := s.engine.Now() + sim.Hours(hours)
		now := s.engine.Now()
		for _, ev := range events {
			s.engine.At(now+ev.at, ev.fn)
		}
		s.engine.RunUntil(horizon)
		return
	}
	if s.shard != nil {
		// Region clocks are equal whenever the driver holds control, so
		// scheduling each session event on the region owning its peer puts
		// it at the same virtual time the sequential engine would use.
		now := s.shard.Now()
		horizon := now + sim.Hours(hours)
		for _, ev := range events {
			s.shard.Schedule(int(ev.id), int(ev.id), now+ev.at, ev.fn)
		}
		s.shard.RunUntil(horizon)
		return
	}
	// Channel transport: apply the plan in time order. Settling after each
	// event serializes protocol-state mutation with the dispatcher.
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	for _, ev := range events {
		ev.fn()
		s.net.Settle()
	}
}

// Close releases transport resources (the channel transport's dispatcher
// goroutine). It is a no-op on the discrete-event transport and after the
// first call.
func (s *Simulation) Close() {
	if ct, ok := s.net.(*p2p.ChannelTransport); ok {
		ct.Close()
	}
}

// QueryProtocol routes a protocol-level query (ground truth supplied by
// the oracle) from origin, requiring the given number of results
// (<= 0 for a total lookup).
func (s *Simulation) QueryProtocol(origin NodeID, oracle *Oracle, required int) (*RouteResult, error) {
	if !s.built {
		return nil, errNotBuilt
	}
	return s.router.Route(origin, oracle, required)
}

// SetRoutingMode switches the SQ router's recall/precision mode.
func (s *Simulation) SetRoutingMode(m RoutingMode) { s.router.Mode = m }

// QueryData evaluates a flexible query against the global summary of the
// origin's domain: peer localization plus approximate answering (§5).
func (s *Simulation) QueryData(origin NodeID, q Query) (*DataAnswer, error) {
	if !s.built {
		return nil, errNotBuilt
	}
	return routing.RouteData(s.sys, origin, q)
}

// FloodQuery runs the pure-flooding baseline from origin.
func (s *Simulation) FloodQuery(origin NodeID, ttl int, oracle *Oracle, required int) *RouteResult {
	return routing.FloodQuery(s.net, origin, ttl, oracle, required)
}

// CentralizedQuery runs the centralized-index baseline.
func (s *Simulation) CentralizedQuery(oracle *Oracle) *RouteResult {
	return routing.CentralizedQuery(s.net, oracle)
}

// RandomMatchOracle draws a Table 3 style oracle: hitFraction of the peers
// match the query.
func (s *Simulation) RandomMatchOracle(hitFraction float64) *Oracle {
	ms := workload.MatchSet(s.rng, s.opts.Peers, hitFraction)
	cur := make(map[NodeID]bool, len(ms))
	for id := range ms {
		cur[NodeID(id)] = true
	}
	return &Oracle{Current: cur}
}

// RandomClient returns a uniformly drawn online client peer.
func (s *Simulation) RandomClient() NodeID {
	ids := s.net.OnlineIDs()
	for tries := 0; tries < 1000; tries++ {
		id := ids[s.rng.Intn(len(ids))]
		if s.sys.Peer(id).Role() == core.RoleClient && s.sys.DomainOf(id) >= 0 {
			return id
		}
	}
	return ids[0]
}

// MessageCounts returns the cumulative per-type message counters.
func (s *Simulation) MessageCounts() map[string]int64 {
	out := make(map[string]int64)
	c := s.net.Counter()
	for _, name := range c.Names() {
		out[name] = c.Get(name)
	}
	return out
}

// TotalMessages returns the total number of messages exchanged so far.
func (s *Simulation) TotalMessages() int64 { return s.net.Counter().Total() }

// MessageBytes returns the cumulative traffic volume per message type:
// every message is charged the length of its encoded wire frame, on every
// transport (walk and flood hops cost a small constant).
func (s *Simulation) MessageBytes() map[string]int64 {
	out := make(map[string]int64)
	b := s.net.Bytes()
	for _, name := range b.Names() {
		out[name] = b.Get(name)
	}
	return out
}

// TotalBytes returns the total traffic volume so far.
func (s *Simulation) TotalBytes() int64 { return s.net.Bytes().Total() }

// KernelStatsSnapshot carries the sharded event kernel's window counters
// (see sim.ShardedStats for field semantics).
type KernelStatsSnapshot = sim.ShardedStats

// KernelStats returns the sharded kernel's window counters; ok is false
// on the sequential engine and the channel transport.
func (s *Simulation) KernelStats() (KernelStatsSnapshot, bool) {
	if s.shard == nil {
		return KernelStatsSnapshot{}, false
	}
	return s.shard.Stats(), true
}

// Reconciliations returns the number of completed ring reconciliations.
func (s *Simulation) Reconciliations() int { return s.sys.Stats().Reconciliations }

// OnlinePeers returns the number of connected peers.
func (s *Simulation) OnlinePeers() int { return s.net.OnlineCount() }

// Now returns the current virtual time in seconds. The channel transport
// runs in real time and has no virtual clock; Now returns 0 there.
func (s *Simulation) Now() float64 {
	switch {
	case s.engine != nil:
		return float64(s.engine.Now())
	case s.shard != nil:
		return float64(s.shard.Now())
	}
	return 0
}

// DomainReport is a point-in-time snapshot of one domain's health.
type DomainReport = core.DomainReport

// Reports snapshots every domain.
func (s *Simulation) Reports() []DomainReport { return s.sys.ReportAll() }

// Describe renders a multi-line system overview.
func (s *Simulation) Describe() string { return s.sys.Describe() }

// WorkloadResult aggregates a batch of routed queries.
type WorkloadResult = routing.WorkloadResult

// WorkloadOptions configures RunWorkload.
type WorkloadOptions = routing.WorkloadOptions

// RunWorkload routes a whole query workload (Table 3 style) through the
// SQ router and both baselines, aggregating costs and accuracy.
func (s *Simulation) RunWorkload(opts WorkloadOptions) (*WorkloadResult, error) {
	if !s.built {
		return nil, errNotBuilt
	}
	return routing.RunWorkload(s.sys, s.router, opts)
}
