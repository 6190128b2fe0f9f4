package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"runtime"
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
	"p2psum/internal/routing"
	"p2psum/internal/saintetiq"
	"p2psum/internal/topology"
	"p2psum/internal/wire"
)

// The two serving workloads: one data-level star domain on the channel
// transport, fronted by the query gateway, queried by closed-loop socket
// clients over the host's loopback interface (not a real link). They
// differ in one thing only — whether queries repeat — so serve_zipf
// exercises the freshness cache and singleflight and serve_miss bypasses
// them. Both run the same installer beside the readers.

// queryCodes enumerates the medical vocabulary's query space without
// repetition: a code packs one label-subset bit mask per attribute plus a
// SELECT mask, and a bijection keyed by the seed maps a counter to a code.
// Codes with an empty WHERE or SELECT are skipped.
type queryCodes struct {
	attrs   []*bk.AttrBK
	bits    int    // width of a code
	a, b, c uint32 // the bijection's keys; a and c odd
	cursor  uint32
	stride  uint32
}

func newQueryCodes(b *bk.BK, seed int64, start, stride int) *queryCodes {
	rng := rand.New(rand.NewSource(seed))
	qc := &queryCodes{attrs: b.Attrs(), a: rng.Uint32() | 1, b: rng.Uint32(), c: rng.Uint32() | 1,
		cursor: uint32(start), stride: uint32(stride)}
	qc.bits = len(qc.attrs) // the SELECT mask
	for _, a := range qc.attrs {
		qc.bits += len(a.Labels())
	}
	return qc
}

// code maps counter x to a code. An odd multiplier and a right xor-shift
// are each a bijection on bits-wide integers; the multiplier alone would
// leave the low bits of a strided counter — one attribute's mask — fixed
// for a whole stream, so two rounds fold the high bits into them.
func (qc *queryCodes) code(x uint32) uint32 {
	mask := uint32(1)<<qc.bits - 1
	x = (qc.a*x + qc.b) & mask
	x ^= x >> (qc.bits / 2)
	x = (qc.c * x) & mask
	x ^= x >> (qc.bits / 2)
	return x
}

// next returns the next valid query of this enumerator's residue class.
func (qc *queryCodes) next() query.Query {
	for {
		code := qc.code(qc.cursor)
		qc.cursor += qc.stride
		var q query.Query
		for _, a := range qc.attrs {
			labels := a.Labels()
			mask := code & (1<<len(labels) - 1)
			code >>= len(labels)
			if mask == 0 {
				continue
			}
			c := query.Clause{Attr: a.Name}
			for j, l := range labels {
				if mask&(1<<j) != 0 {
					c.Labels = append(c.Labels, l)
				}
			}
			q.Where = append(q.Where, c)
		}
		for j, a := range qc.attrs {
			if code&(1<<j) != 0 {
				q.Select = append(q.Select, a.Name)
			}
		}
		if len(q.Where) > 0 && len(q.Select) > 0 {
			return q
		}
	}
}

// serveState is a freshly set-up, warmed-up serving stack.
type serveState struct {
	e       *env
	zipf    bool
	b       *bk.BK
	mapper  *cells.Mapper
	ct      *p2p.ChannelTransport
	sys     *core.System
	gw      *gateway.Gateway
	ln      net.Listener
	served  chan struct{}
	clients []*gateway.WireClient
	prober  *gateway.WireClient
	pool    []query.Query // serve_zipf's query pool
	// epoch is odd while an install is in flight.
	epoch atomic.Int64
	// answered counts the measured phase's queries; every svInstall-th
	// one makes an install due.
	answered atomic.Int64
}

// concurrency is the number of closed-loop client connections.
func concurrency() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// summarise builds one spoke's local summary over freshly generated rows.
func (s *serveState) summarise(peer, generation int) (*saintetiq.Tree, error) {
	seed := s.e.seed*1_000_003 + int64(generation*(s.e.sz.svSpokes+1)+peer)
	rel := data.NewPatientGenerator(seed, nil).Generate("patients", s.e.sz.svRows)
	cs := cells.NewStore(s.mapper)
	cs.AddRelation(rel)
	tr := saintetiq.New(s.b, saintetiq.DefaultConfig())
	if err := tr.IncorporateStore(cs, saintetiq.PeerID(peer)); err != nil {
		return nil, err
	}
	return tr, nil
}

func newServeState(e *env, zipf bool) (s *serveState, err error) {
	s = &serveState{e: e, zipf: zipf, b: bk.Medical(), served: make(chan struct{})}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	n := e.sz.svSpokes + 1
	g := topology.NewGraph(n)
	for i := 1; i < n; i++ {
		if err := g.AddEdge(0, i, 0.01); err != nil {
			return s, err
		}
	}
	g.Compact()
	s.ct = p2p.NewChannelTransport(g, e.seed, p2p.ChannelConfig{})
	cfg := core.DefaultConfig()
	// One stale spoke stays below alpha, two cross it: every install
	// triggers exactly one ring.
	cfg.Alpha = 1.5 / float64(n)
	cfg.DataLevel = true
	cfg.BK = s.b
	cfg.Shards = 4
	// The in-process channel transport loses no frames; the ring-loss
	// timer could only misfire on a slow (race-instrumented) build.
	cfg.ReconcileTimeout = 100000
	if s.sys, err = core.NewSystem(s.ct, cfg); err != nil {
		return s, err
	}
	if s.mapper, err = cells.NewMapper(s.b, data.PatientSchema()); err != nil {
		return s, err
	}
	for i := 0; i < n; i++ {
		tr, err := s.summarise(i, 0)
		if err != nil {
			return s, err
		}
		s.sys.SetLocalTree(p2p.NodeID(i), tr)
	}
	s.sys.AssignSummaryPeers([]p2p.NodeID{0})
	if err := s.sys.Construct(); err != nil {
		return s, err
	}
	s.ct.Settle()
	// A first ring makes the resident store ring-built, so later installs
	// swap only the shards whose content changed.
	s.sys.MarkModifiedAll([]p2p.NodeID{1, 2})
	s.ct.Settle()

	// Default gateway configuration, except that admission never sheds.
	var be gateway.Backend = gateway.SystemBackend{Sys: s.sys}
	if e.rec != nil {
		be = traceBackend{Backend: be, rec: e.rec}
	}
	s.gw = gateway.New(gateway.Config{Rate: 1e9, Burst: 1e9}, be)
	s.gw.AttachSystem(s.sys)
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return s, err
	}
	go func() {
		_ = s.gw.ServeWire(s.ln) // returns when the listener closes
		close(s.served)
	}()
	for c := 0; c <= concurrency(); c++ {
		wc, err := gateway.DialWire(s.ln.Addr().String(), fmt.Sprintf("bench-%d", c))
		if err != nil {
			return s, err
		}
		wc.Timeout = 30 * time.Second
		if c == concurrency() {
			s.prober = wc
		} else {
			s.clients = append(s.clients, wc)
		}
	}
	codes := newQueryCodes(s.b, e.seed, 0, 1)
	s.pool = make([]query.Query, e.sz.svPool)
	for i := range s.pool {
		s.pool[i] = codes.next()
	}
	return s, nil
}

func (s *serveState) close() {
	for _, wc := range append(s.clients, s.prober) {
		if wc != nil {
			_ = wc.Close()
		}
	}
	if s.ln != nil {
		_ = s.ln.Close()
		<-s.served
	}
	if s.ct != nil {
		s.ct.Close()
	}
}

// source yields client c's query stream for one phase. serve_zipf draws
// Zipf(1.1) ranks and maps a rank to a pool query through a permutation
// that is redrawn every svDrift queries — popularity drifts, the same way
// for every client. Under one fixed ranking the few hottest queries (the
// top one alone is a seventh of the traffic) would decide the run's
// median latency by the size of their answers; with drift a run averages
// over many hot sets. serve_miss walks its own residue class of the code
// enumeration past the pool, so no query ever repeats.
func (s *serveState) source(c, phase int) func() query.Query {
	if !s.zipf {
		codes := newQueryCodes(s.b, s.e.seed, len(s.pool)+phase+2*c, 2*len(s.clients))
		return codes.next
	}
	rng := rand.New(rand.NewSource(s.e.seed + int64(1000*phase+c)))
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(s.pool)-1))
	n, drift := uint64(len(s.pool)), s.e.sz.svDrift
	var a, b uint64 // rank r is pool[(a*r+b) mod n]: a bijection, n being a power of two
	i := 0
	return func() query.Query {
		if i%drift == 0 {
			epoch := rand.New(rand.NewSource(s.e.seed*31 + int64(100003*phase+i/drift)))
			a, b = epoch.Uint64()|1, epoch.Uint64()
		}
		i++
		return s.pool[(a*z.Uint64()+b)%n]
	}
}

// sameAnswer compares two answers by their wire encoding.
func sameAnswer(a, b *routing.DataAnswer) bool {
	ea, eb := wire.GetEnc(), wire.GetEnc()
	defer ea.Release()
	defer eb.Release()
	routing.EncodeDataAnswer(ea, a)
	routing.EncodeDataAnswer(eb, b)
	return bytes.Equal(ea.Bytes(), eb.Bytes())
}

// clientStats is what one closed-loop client observed.
type clientStats struct {
	lat       []float64 // microseconds
	hits      int
	failed    int
	verified  int
	attempted int
	notes     []string
}

// drive issues count queries on one connection. When verify is set every
// answer received while no install was in flight is compared with a direct
// evaluation against the store.
func (s *serveState) drive(wc *gateway.WireClient, c, phase, count int, verify bool, due chan<- struct{}) clientStats {
	var cs clientStats
	next := s.source(c, phase)
	rng := rand.New(rand.NewSource(s.e.seed ^ int64(phase*977+c)))
	rec := s.e.rec
	for i := 0; i < count; i++ {
		q := next()
		origin := p2p.NodeID(1 + rng.Intn(s.e.sz.svSpokes))
		before := s.epoch.Load()
		t0 := time.Now()
		ans, hit, err := wc.Ask(origin, q)
		d := time.Since(t0)
		cs.attempted++
		if due != nil && s.answered.Add(1)%int64(s.e.sz.svInstall) == 0 {
			due <- struct{}{} // the installer's count-based trigger
		}
		if err != nil {
			cs.failed++
			cs.notes = append(cs.notes, fmt.Sprintf("query %v: %v", q, err))
			continue
		}
		cs.lat = append(cs.lat, float64(d)/1e3)
		if hit {
			cs.hits++
			rec.flat(spAskHit, t0, d)
		} else {
			rec.flat(spAskMiss, t0, d)
		}
		if verify && before%2 == 0 {
			direct, err := routing.RouteData(s.sys, origin, q)
			if s.epoch.Load() != before {
				continue // an install started meanwhile: not comparable
			}
			cs.verified++
			if err != nil || !sameAnswer(ans, direct) {
				cs.failed++
				cs.notes = append(cs.notes, fmt.Sprintf("query %v: answer differs from direct evaluation (err %v)", q, err))
			}
		}
	}
	return cs
}

// install re-summarises one spoke over fresh rows, triggers the ring that
// installs the delta, and then proves the gateway is not stale: a broad
// query (every leaf of the store, so the modified spoke's too) and a hot
// pool query must both equal a direct evaluation.
func (s *serveState) install(k int, it *iteration) error {
	spokes := s.e.sz.svSpokes
	spoke := 1 + k%spokes
	other := 1 + (k+1)%spokes
	t0 := time.Now()
	s.epoch.Add(1)
	tr, err := s.summarise(spoke, k+1)
	if err != nil {
		return err
	}
	s.sys.SetLocalTree(p2p.NodeID(spoke), tr)
	// The second mark carries unchanged content; it only pushes the
	// domain's stale fraction across alpha.
	s.sys.MarkModifiedAll([]p2p.NodeID{p2p.NodeID(spoke), p2p.NodeID(other)})
	s.ct.Settle()
	s.epoch.Add(1)
	d := time.Since(t0)
	s.e.rec.flat(spInstall, t0, d)
	broad := query.Query{Select: []string{"age", "disease"}, Where: []query.Clause{{Attr: "sex", Labels: s.b.Attr("sex").Labels()}}}
	for _, q := range []query.Query{broad, s.pool[k%64%len(s.pool)]} {
		origin := p2p.NodeID(spoke)
		got, _, err := s.prober.Ask(origin, q)
		if err != nil {
			return err
		}
		want, err := routing.RouteData(s.sys, origin, q)
		if err != nil {
			return err
		}
		it.check(sameAnswer(got, want), "install %d: gateway answer to %v is stale", k, q)
	}
	return nil
}

func runServeZipf(e *env) (*iteration, error) { return runServe(e, true) }
func runServeMiss(e *env) (*iteration, error) { return runServe(e, false) }

func runServe(e *env, zipf bool) (*iteration, error) {
	it := newIteration()
	queries, warm := e.sz.missQueries, e.sz.missWarm
	if zipf {
		queries, warm = e.sz.zipfQueries, e.sz.zipfWarm
	}
	t0 := time.Now()
	s, err := newServeState(e, zipf)
	if err != nil {
		return nil, err
	}
	it.close = s.close
	// Warm-up belongs to set-up: connections, pools and (serve_zipf) the
	// cache reach their steady state before timing starts.
	e.rec.pause(true)
	var wg sync.WaitGroup
	for c, wc := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.drive(wc, c, 0, warm, false, nil)
		}()
	}
	wg.Wait()
	e.rec.pause(false)
	it.setup = time.Since(t0)

	base := s.gw.Snapshot()
	total := len(s.clients) * queries
	installs := total/e.sz.svInstall - 1
	if installs < 1 {
		installs = 1
	}
	// due holds one token per svInstall answered queries; its capacity
	// covers them all, so clients never block on it.
	due := make(chan struct{}, total/e.sz.svInstall+1)
	results := make([]clientStats, len(s.clients))
	start := time.Now()
	for c, wc := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[c] = s.drive(wc, c, 1, queries, e.verify, due)
		}()
	}
	// The installer is count-based: install k starts once k*svInstall
	// queries have been answered, so the number of installs is fixed.
	var installErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= installs; k++ {
			<-due
			if installErr = s.install(k, it); installErr != nil {
				return
			}
		}
	}()
	wg.Wait()
	it.wall = time.Since(start)
	if installErr != nil {
		return nil, installErr
	}

	snap := s.gw.Snapshot()
	hits := 0
	for _, cs := range results {
		it.ops = append(it.ops, cs.lat...)
		it.attempted += cs.attempted
		it.failed += cs.failed
		it.notes = append(it.notes, cs.notes...)
		hits += cs.hits
		it.layer["bench.verified"] += float64(cs.verified)
	}
	shed := snap.Shed - base.Shed
	it.check(shed == 0, "%d queries shed by admission", shed)
	it.peers = s.ct.Len()
	it.msgs = s.ct.Counter().Total()
	it.bytes = s.ct.Bytes().Total()
	it.layer["p2p.bytes"] = float64(it.bytes)
	it.layer["gateway.qps"] = float64(len(it.ops)) / it.wall.Seconds()
	it.layer["gateway.hit_ratio"] = float64(hits) / float64(len(it.ops))
	it.layer["gateway.coalesced"] = float64(snap.Coalesced - base.Coalesced)
	it.layer["gateway.shed"] = float64(shed)
	it.layer["gateway.installs"] = float64(snap.Installs - base.Installs)
	if n := float64(snap.Installs - base.Installs); n > 0 {
		it.layer["gateway.invalidated_per_install"] = float64(snap.Invalidated-base.Invalidated) / n
	}
	it.probe = func(m map[string]float64) { probeServing(m, s) }
	return it, nil
}
