// Package gateway is the serving edge: the client-facing front door that
// turns the repo's query machinery (routing.RouteData / routing.QueryService)
// into something that can absorb heavy duplicate-laden query traffic from
// many concurrent clients without melting the summary peers.
//
// Three mechanisms stack on the way in:
//
//  1. Admission — every client session owns a token bucket (Config.Rate /
//     Config.Burst); a client over its rate is shed immediately with
//     ErrThrottled. Clients that pass the bucket but find every upstream
//     slot busy wait in per-client FIFO queues served round-robin
//     (fairQueue), so one chatty client cannot starve the rest.
//
//  2. Singleflight — concurrent identical queries (same domain, same
//     semantic query under routing.SameQuery) coalesce onto one upstream
//     execution; the followers wait for the leader's flight and share its
//     result.
//
//  3. Freshness cache — results are cached keyed on the query fingerprint
//     and validated against the per-shard install generations of the
//     domain's summary store (summarystore.Store.Generation): before the
//     upstream execution the gateway captures the generations of exactly
//     the shards the query can touch (query.Candidates), and a lookup
//     re-reads them with two atomic loads per shard. A reconciliation that
//     installs a delta into shard 3 invalidates precisely the entries
//     that read shard 3 — entries over other shards keep serving. The
//     generations are captured BEFORE the execution, so an install racing
//     the upstream read can only make the entry look staler than it is,
//     never fresher. When the domain's store is not readable in this
//     process (the summary peer lives across a TCP link) the cache falls
//     back to a TTL derived from the paper's α freshness threshold: α of
//     the observed mean install interval (System.OnInstall feeds the
//     estimate), clamped to [100ms, 30s]. An entry keeps
//     what its callers read back: once the wire frontend has encoded an
//     entry's result body, the entry keeps those exact-size bytes and drops
//     the decoded answer graph, and the graph is rebuilt from the bytes on
//     the entry's first in-process hit. A cache of wire-served answers is
//     therefore a heap of byte slices, not of maps the collector must scan.
//
// The gateway serves three frontends over one flow: in-process calls
// (Client.Query), long-lived wire-codec connections (ServeWire /
// DialWire), and a thin HTTP/JSON adapter (HTTPHandler).
package gateway

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"p2psum/internal/core"
	"p2psum/internal/p2p"
	"p2psum/internal/query"
	"p2psum/internal/routing"
	"p2psum/internal/summarystore"
)

// Admission errors. The wire and HTTP frontends map them to retryable
// status codes; in-process callers can errors.Is on them.
var (
	// ErrThrottled: the client is over its token-bucket rate.
	ErrThrottled = errors.New("gateway: client over admission rate")
	// ErrOverloaded: the client already has a full queue of waiters.
	ErrOverloaded = errors.New("gateway: per-client queue full")
	// ErrQueueTimeout: no upstream slot freed up within five seconds.
	ErrQueueTimeout = errors.New("gateway: timed out waiting for an upstream slot")
)

// Backend is what the gateway serves queries from. SystemBackend is the
// production implementation; tests and benchmarks substitute fakes.
type Backend interface {
	// Domain resolves the summary peer serving origin's domain, -1 when
	// origin is unknown or has none. Called on every request: must be
	// cheap and concurrency-safe.
	Domain(origin p2p.NodeID) p2p.NodeID
	// Store returns the domain's global-summary store when it is readable
	// in this process (enabling generation-keyed freshness and shard
	// capture), nil otherwise (the cache falls back to the α-derived TTL).
	Store(domain p2p.NodeID) *summarystore.Store
	// Execute evaluates q for origin upstream — the expensive call the
	// cache and singleflight exist to amortize.
	Execute(origin p2p.NodeID, q query.Query) (*routing.DataAnswer, error)
	// Alpha returns the freshness threshold α used to derive the TTL
	// fallback from the observed install rate.
	Alpha() float64
}

// SystemBackend serves from a core.System hosted in this process: local
// domains answer through routing.RouteData under the store's shard read
// locks, domains whose summary peer lives elsewhere go through the
// QueryService as MsgQuery protocol messages.
type SystemBackend struct {
	Sys *core.System
	// QS answers queries for domains without a local store; nil restricts
	// the backend to locally-served domains.
	QS *routing.QueryService
}

// Domain resolves origin's summary peer with bounds checking (origins
// arrive from untrusted clients).
func (b SystemBackend) Domain(origin p2p.NodeID) p2p.NodeID {
	if !b.Sys.HasPeer(origin) {
		return -1
	}
	return b.Sys.DomainOf(origin)
}

// Store returns the domain summary peer's store, nil when the peer is not
// hosted (or not a data-level summary peer) in this process.
func (b SystemBackend) Store(domain p2p.NodeID) *summarystore.Store {
	if !b.Sys.HasPeer(domain) {
		return nil
	}
	p := b.Sys.Peer(domain)
	if p == nil {
		return nil
	}
	return p.SummaryStore()
}

// Execute answers q: in-process store reads when the domain is local,
// MsgQuery over the transport otherwise.
func (b SystemBackend) Execute(origin p2p.NodeID, q query.Query) (*routing.DataAnswer, error) {
	domain := b.Domain(origin)
	if domain < 0 {
		return nil, fmt.Errorf("gateway: origin %d has no domain", origin)
	}
	if b.Store(domain) != nil {
		return routing.RouteData(b.Sys, origin, q)
	}
	if b.QS == nil {
		return nil, fmt.Errorf("gateway: domain %d is remote and no query service is wired", domain)
	}
	return b.QS.Ask(origin, q, remoteAskTimeout)
}

// Alpha returns the system's configured freshness threshold.
func (b SystemBackend) Alpha() float64 { return b.Sys.Config().Alpha }

// Config holds a gateway's per-client admission rate; everything else the
// serving edge runs with is fixed (the constants below). The zero value
// gets serving defaults.
type Config struct {
	// Rate is the per-client token refill rate in queries/second
	// (default 100).
	Rate float64
	// Burst is the token-bucket capacity (default 2*Rate, min 1).
	Burst float64
}

const (
	// maxConcurrent is the number of concurrent upstream executions;
	// excess misses wait in the fair queue.
	maxConcurrent = 16
	// maxQueuePerClient bounds one client's waiters in the fair queue;
	// beyond it the request is shed with ErrOverloaded.
	maxQueuePerClient = 64
	// queueTimeout bounds the wait for an upstream slot.
	queueTimeout = 5 * time.Second
	// remoteAskTimeout bounds a SystemBackend's remote Ask.
	remoteAskTimeout = 30 * time.Second
	// minTTL and maxTTL clamp the freshness window of cache entries that
	// cannot be generation-validated (remote domains): α × the observed
	// mean install interval of the domain. A domain with no observed
	// installs uses maxTTL — no installs means nothing is refreshing the
	// summary, so serving longer matches the α semantics.
	minTTL = 100 * time.Millisecond
	maxTTL = 30 * time.Second
	// cacheCapacity bounds the cache entry count; at capacity an arbitrary
	// entry of the insert's cache shard is evicted.
	cacheCapacity = 4096
)

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Rate <= 0 {
		c.Rate = 100
	}
	if c.Burst <= 0 {
		c.Burst = 2 * c.Rate
	}
	if c.Burst < 1 {
		c.Burst = 1
	}
	return c
}

// Stats is a point-in-time snapshot of the gateway counters (SIGUSR1 dump,
// /stats endpoint, experiment assertions).
type Stats struct {
	// ActiveClients is the number of open client sessions.
	ActiveClients int64 `json:"active_clients"`
	// InflightFlights is the number of singleflight executions running.
	InflightFlights int64 `json:"inflight_flights"`
	// Queries counts every Query call; Admitted the ones that passed the
	// token bucket; Shed the ones rejected by admission (bucket, queue
	// bound, or queue timeout).
	Queries  uint64 `json:"queries"`
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
	// Hits / Misses are cache outcomes; Coalesced counts queries that
	// joined another query's flight instead of executing.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	// Installs counts reconciliation installs observed via OnInstall;
	// Invalidated cache entries dropped on generation mismatch; Expired
	// entries dropped on TTL; Evicted entries dropped for capacity.
	Installs    uint64 `json:"installs"`
	Invalidated uint64 `json:"invalidated"`
	Expired     uint64 `json:"expired"`
	Evicted     uint64 `json:"evicted"`
}

// String renders the snapshot as the one-line form the SIGUSR1 dump prints.
func (s Stats) String() string {
	return fmt.Sprintf("clients=%d inflight=%d queries=%d admitted=%d shed=%d hits=%d misses=%d coalesced=%d installs=%d invalidated=%d expired=%d evicted=%d",
		s.ActiveClients, s.InflightFlights, s.Queries, s.Admitted, s.Shed,
		s.Hits, s.Misses, s.Coalesced, s.Installs, s.Invalidated, s.Expired, s.Evicted)
}

// counters are the live atomics behind Stats.
type counters struct {
	activeClients atomic.Int64
	inflight      atomic.Int64
	queries       atomic.Uint64
	admitted      atomic.Uint64
	shed          atomic.Uint64
	hits          atomic.Uint64
	misses        atomic.Uint64
	coalesced     atomic.Uint64
	installs      atomic.Uint64
	invalidated   atomic.Uint64
	expired       atomic.Uint64
	evicted       atomic.Uint64
}

// flight is one in-progress upstream execution that followers wait on.
type flight struct {
	domain p2p.NodeID
	q      query.Query
	done   chan struct{}
	e      *entry
	err    error
}

// domainClock estimates a domain's install cadence for the α-derived TTL.
type domainClock struct {
	mu   sync.Mutex
	last time.Time
	ewma time.Duration
}

// Gateway is the serving edge over one Backend. Create with New, serve
// in-process via Connect/Query, over sockets via ServeWire, over HTTP via
// HTTPHandler.
type Gateway struct {
	cfg   Config
	be    Backend
	cache cache
	queue fairQueue
	ctr   counters

	fmu     sync.Mutex
	flights map[uint64]*flight

	smu      sync.Mutex
	sessions map[string]*Client

	kmu    sync.Mutex
	clocks map[p2p.NodeID]*domainClock
}

// New builds a gateway over be. Wire invalidation with AttachSystem (or
// use NewForSystem, which does both).
func New(cfg Config, be Backend) *Gateway {
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:      cfg,
		be:       be,
		flights:  make(map[uint64]*flight),
		sessions: make(map[string]*Client),
		clocks:   make(map[p2p.NodeID]*domainClock),
	}
	g.cache.init(cacheCapacity)
	g.queue.init(maxConcurrent, maxQueuePerClient)
	return g
}

// NewForSystem builds a gateway over a SystemBackend and subscribes it to
// the system's reconciliation installs.
func NewForSystem(cfg Config, sys *core.System, qs *routing.QueryService) *Gateway {
	g := New(cfg, SystemBackend{Sys: sys, QS: qs})
	g.AttachSystem(sys)
	return g
}

// AttachSystem subscribes the gateway to the system's reconciliation
// installs (System.OnInstall): every install feeds the α TTL estimate, and
// installs that swapped shards scrub the affected domain's cache entries
// proactively. Correctness does not depend on the hook — every lookup
// revalidates generations — it converts lazy invalidation into prompt
// space reclamation and keeps the Installs/Invalidated counters honest.
func (g *Gateway) AttachSystem(sys *core.System) {
	sys.OnInstall = g.OnInstall
}

// OnInstall is the invalidation hook (see AttachSystem). It runs on the
// summary peer's dispatch goroutine: no locks are held long, nothing
// blocks on the transport.
func (g *Gateway) OnInstall(sp p2p.NodeID, shardsSwapped int) {
	g.ctr.installs.Add(1)
	g.noteInstall(sp, time.Now())
	if shardsSwapped > 0 {
		if st := g.be.Store(sp); st != nil {
			g.ctr.invalidated.Add(uint64(g.cache.scrub(sp, st)))
		}
	}
}

// noteInstall folds an install into the domain's cadence EWMA.
func (g *Gateway) noteInstall(sp p2p.NodeID, now time.Time) {
	g.kmu.Lock()
	dc := g.clocks[sp]
	if dc == nil {
		dc = &domainClock{}
		g.clocks[sp] = dc
	}
	g.kmu.Unlock()
	dc.mu.Lock()
	if !dc.last.IsZero() {
		gap := now.Sub(dc.last)
		if dc.ewma == 0 {
			dc.ewma = gap
		} else {
			dc.ewma = (3*dc.ewma + gap) / 4
		}
	}
	dc.last = now
	dc.mu.Unlock()
}

// ttl returns the freshness window for a new cache entry of the domain:
// α × the observed mean install interval clamped to [minTTL, maxTTL]
// (maxTTL while no cadence is known).
func (g *Gateway) ttl(domain p2p.NodeID) time.Duration {
	g.kmu.Lock()
	dc := g.clocks[domain]
	g.kmu.Unlock()
	if dc == nil {
		return maxTTL
	}
	dc.mu.Lock()
	ewma := dc.ewma
	dc.mu.Unlock()
	if ewma <= 0 {
		return maxTTL
	}
	return min(max(time.Duration(g.be.Alpha()*float64(ewma)), minTTL), maxTTL)
}

// Snapshot returns the current counter values.
func (g *Gateway) Snapshot() Stats {
	return Stats{
		ActiveClients:   g.ctr.activeClients.Load(),
		InflightFlights: g.ctr.inflight.Load(),
		Queries:         g.ctr.queries.Load(),
		Admitted:        g.ctr.admitted.Load(),
		Shed:            g.ctr.shed.Load(),
		Hits:            g.ctr.hits.Load(),
		Misses:          g.ctr.misses.Load(),
		Coalesced:       g.ctr.coalesced.Load(),
		Installs:        g.ctr.installs.Load(),
		Invalidated:     g.ctr.invalidated.Load(),
		Expired:         g.ctr.expired.Load(),
		Evicted:         g.ctr.evicted.Load(),
	}
}

// Client is one admission-controlled session: a long-lived wire
// connection, one HTTP remote, or an in-process caller. Sessions are
// cheap; hold one per logical client so the token bucket and fair queue
// see the real client boundaries.
type Client struct {
	g *Gateway
	// bucket state, guarded by mu.
	mu     sync.Mutex
	tokens float64
	last   time.Time
	// waiters is this client's FIFO of fair-queue slots; guarded by the
	// fair queue's lock, not mu.
	waiters []chan struct{}
	closed  atomic.Bool
}

// Connect opens an anonymous client session.
func (g *Gateway) Connect() *Client {
	g.ctr.activeClients.Add(1)
	return &Client{g: g, tokens: g.cfg.Burst, last: time.Now()}
}

// Session returns the named long-lived session, creating it on first use —
// the per-remote-host identity of the HTTP adapter.
func (g *Gateway) Session(key string) *Client {
	g.smu.Lock()
	defer g.smu.Unlock()
	if c := g.sessions[key]; c != nil {
		return c
	}
	c := g.Connect()
	g.sessions[key] = c
	return c
}

// Close ends the session. Queued waiters drain via their own timeouts.
func (c *Client) Close() {
	if c.closed.CompareAndSwap(false, true) {
		c.g.ctr.activeClients.Add(-1)
	}
}

// admit refills and drains the token bucket; reports false when the
// client is over its rate.
func (c *Client) admit(now time.Time) bool {
	cfg := &c.g.cfg
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tokens += now.Sub(c.last).Seconds() * cfg.Rate
	if c.tokens > cfg.Burst {
		c.tokens = cfg.Burst
	}
	c.last = now
	if c.tokens < 1 {
		return false
	}
	c.tokens--
	return true
}

// Query answers q posed at origin through the full serving flow:
// admission, cache, singleflight, fair queue, upstream. hit reports
// whether the answer came straight from a fresh cache entry. The returned
// answer is shared with other clients — treat it as immutable.
func (c *Client) Query(origin p2p.NodeID, q query.Query) (ans *routing.DataAnswer, hit bool, err error) {
	e, hit, err := c.do(origin, q)
	if err != nil {
		return nil, false, err
	}
	ans, err = e.answer()
	if err != nil {
		return nil, false, err
	}
	return ans, hit, nil
}

// do is Query returning the cache entry itself — the wire server replays
// the entry's pre-encoded bytes instead of re-encoding the answer.
func (c *Client) do(origin p2p.NodeID, q query.Query) (*entry, bool, error) {
	g := c.g
	g.ctr.queries.Add(1)
	now := time.Now()
	if !c.admit(now) {
		g.ctr.shed.Add(1)
		return nil, false, ErrThrottled
	}
	g.ctr.admitted.Add(1)
	domain := g.be.Domain(origin)
	if domain < 0 {
		return nil, false, fmt.Errorf("gateway: origin %d has no domain", origin)
	}
	h := routing.HashQuery(q) ^ mixID(domain)
	if e, ok := g.cache.get(h, domain, q, now, &g.ctr); ok {
		g.ctr.hits.Add(1)
		return e, true, nil
	}
	return g.miss(c, h, domain, origin, q)
}

// mixID spreads a domain id over the fingerprint space.
func mixID(id p2p.NodeID) uint64 {
	x := uint64(id) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

// miss runs the singleflight-guarded upstream path for a cache miss.
func (g *Gateway) miss(c *Client, h uint64, domain, origin p2p.NodeID, q query.Query) (*entry, bool, error) {
	g.fmu.Lock()
	if f := g.flights[h]; f != nil && f.domain == domain && routing.SameQuery(f.q, q) {
		g.fmu.Unlock()
		g.ctr.coalesced.Add(1)
		<-f.done
		// The flight may have read the store before an install this
		// request follows: share its answer only while it is fresh.
		if f.err != nil || f.e.fresh(time.Now()) {
			return f.e, false, f.err
		}
		return g.miss(c, h, domain, origin, q)
	}
	f := &flight{domain: domain, q: q, done: make(chan struct{})}
	g.flights[h] = f
	g.fmu.Unlock()

	g.ctr.misses.Add(1)
	g.ctr.inflight.Add(1)
	e, err := g.execute(c, domain, origin, q)
	if err == nil {
		// Publish to the cache before retiring the flight, so a request
		// arriving between the two finds the entry instead of launching a
		// fresh upstream execution.
		g.cache.put(h, e, &g.ctr)
	}
	g.fmu.Lock()
	if g.flights[h] == f {
		delete(g.flights, h)
	}
	g.fmu.Unlock()
	f.e, f.err = e, err
	close(f.done)
	g.ctr.inflight.Add(-1)
	return e, false, err
}

// execute acquires an upstream slot fairly, captures the freshness basis,
// and runs the backend execution.
func (g *Gateway) execute(c *Client, domain, origin p2p.NodeID, q query.Query) (*entry, error) {
	if err := g.queue.acquire(c, queueTimeout); err != nil {
		g.ctr.shed.Add(1)
		return nil, err
	}
	defer g.queue.release()

	// Freshness basis: the generations of exactly the shards this query
	// can touch, captured BEFORE the execution. An install racing the
	// upstream read bumps a captured shard and the entry is born stale —
	// one spurious re-execution, never a stale answer. Compiling the
	// candidates also validates the query against the vocabulary, so a
	// malformed query fails before paying for an evaluation.
	st := g.be.Store(domain)
	var shards []int
	var gens []uint64
	if st != nil {
		var err error
		shards, err = query.Candidates(st, q)
		if err != nil {
			return nil, err
		}
		gens = make([]uint64, len(shards))
		for i, s := range shards {
			gens[i] = st.Generation(s)
		}
	}
	now := time.Now()
	ans, err := g.be.Execute(origin, q)
	if err != nil {
		return nil, err
	}
	e := &entry{
		domain:   domain,
		q:        q,
		st:       st,
		shards:   shards,
		gens:     gens,
		deadline: now.Add(g.ttl(domain)),
	}
	e.ans.Store(ans)
	return e, nil
}
