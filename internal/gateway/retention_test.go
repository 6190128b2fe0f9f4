package gateway

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"p2psum/internal/core"
	"p2psum/internal/p2p"
	"p2psum/internal/query"
	"p2psum/internal/routing"
	"p2psum/internal/saintetiq"
	"p2psum/internal/wire"
)

// What a cache entry retains: once the wire frontend has built an entry's
// body, the entry keeps the bytes and drops the answer graph; an in-process
// hit rebuilds the graph from the bytes once.

// servingSystem builds a 9-node data-level domain (summary peer 0) on the
// channel transport and serves a gateway over it on a loopback socket.
func servingSystem(t *testing.T) (*core.System, *p2p.ChannelTransport, *Gateway, string) {
	t.Helper()
	const n = 9
	ct := p2p.NewChannelTransport(star(t, n), 31, p2p.ChannelConfig{})
	t.Cleanup(ct.Close)
	sys, err := core.NewSystem(ct, dataCfg(0.05))
	if err != nil {
		t.Fatal(err)
	}
	seedDiseaseTrees(t, sys.SetLocalTree, n)
	sys.AssignSummaryPeers([]p2p.NodeID{0})
	if err := sys.Construct(); err != nil {
		t.Fatal(err)
	}
	ct.Settle()
	g := NewForSystem(Config{Rate: 1e9}, sys, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go g.ServeWire(ln)
	return sys, ct, g, ln.Addr().String()
}

// broadQuery selects every patient of the domain, so its answer has one
// class per (sex, disease) interpretation.
func broadQuery() query.Query {
	return query.Query{
		Select: []string{"age", "bmi"},
		Where: []query.Clause{
			{Attr: "disease", Labels: []string{"anorexia", "malaria"}},
			{Attr: "sex", Labels: []string{"female", "male"}},
		},
	}
}

// residentEntry returns the cache entry serving q in domain, nil if none.
func residentEntry(g *Gateway, domain p2p.NodeID, q query.Query) *entry {
	h := routing.HashQuery(q) ^ mixID(domain)
	cs := &g.cache.shards[h%cacheShards]
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	return cs.m[h]
}

// wireBody is the body an entry replays for ans: "" error, then the answer.
func wireBody(ans *routing.DataAnswer) []byte {
	e := new(wire.Enc)
	e.String("")
	routing.EncodeDataAnswer(e, ans)
	return e.Bytes()
}

func dialTest(t *testing.T, addr string) *WireClient {
	t.Helper()
	wc, err := DialWire(addr, "retention-test")
	if err != nil {
		t.Fatal(err)
	}
	wc.Timeout = 5 * time.Second
	t.Cleanup(func() { wc.Close() })
	return wc
}

// TestWireMissDropsGraph: an entry filled by a wire miss holds its exact
// wire body and no answer graph once the miss has been served; an
// in-process hit on it then returns an answer that encodes to the same body
// as the entry and as a direct routing.RouteData, and keeps that answer
// for the hits after it.
func TestWireMissDropsGraph(t *testing.T) {
	sys, _, g, addr := servingSystem(t)
	wc := dialTest(t, addr)
	const origin = 3
	q := broadQuery()
	if _, hit, err := wc.Ask(origin, q); err != nil || hit {
		t.Fatalf("first ask: hit=%v err=%v, want a clean miss", hit, err)
	}
	e := residentEntry(g, sys.DomainOf(origin), q)
	if e == nil {
		t.Fatal("wire miss cached no entry")
	}
	if e.ans.Load() != nil {
		t.Fatal("entry still holds its answer graph after the wire serve")
	}
	body := e.encoded()
	if len(body) == 0 || cap(body) != len(body) {
		t.Fatalf("wire body len %d cap %d, want exact and non-empty", len(body), cap(body))
	}

	c := g.Connect()
	defer c.Close()
	ans, hit, err := c.Query(origin, q)
	if err != nil || !hit {
		t.Fatalf("in-process query: hit=%v err=%v, want a hit", hit, err)
	}
	if len(ans.Answer.Classes) < 2 {
		t.Fatalf("answer has %d classes, want several", len(ans.Answer.Classes))
	}
	if !bytes.Equal(wireBody(ans), body) {
		t.Error("in-process answer does not encode to the entry's wire body")
	}
	direct, err := routing.RouteData(sys, origin, q)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wireBody(direct), body) {
		t.Error("entry's wire body differs from a direct RouteData")
	}
	again, _, err := c.Query(origin, q)
	if err != nil {
		t.Fatal(err)
	}
	if again != ans {
		t.Error("second in-process hit decoded the body again")
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _, _ = c.Query(origin, q) }); allocs != 0 {
		t.Errorf("in-process hit on a wire-built entry allocates %.1f/op, want 0", allocs)
	}
	// The wire frontend keeps replaying the same bytes.
	replayed, hit, err := wc.Ask(origin, q)
	if err != nil || !hit {
		t.Fatalf("wire replay: hit=%v err=%v", hit, err)
	}
	if !bytes.Equal(wireBody(replayed), body) {
		t.Error("wire replay decodes to a different answer")
	}
}

// TestEntryServeRace: wire replays, in-process hits and a reconciliation
// install that invalidates the entry, all at once on one query. Run under
// -race; every answer must encode like a direct evaluation of the store it
// was read from, and the last answers like the final store.
func TestEntryServeRace(t *testing.T) {
	sys, ct, g, addr := servingSystem(t)
	const origin = 3
	q := broadQuery()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := make(chan error, 8)
	for i := 0; i < 3; i++ {
		wc := dialTest(t, addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := wc.Ask(origin, q); err != nil {
					fail <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		c := g.Connect()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ans, _, err := c.Query(origin, q)
				if err != nil {
					fail <- err
					return
				}
				_ = wireBody(ans) // read the whole graph
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	before := sys.Stats().Reconciliations
	mod := p2p.NodeID(8)
	sys.SetLocalTree(mod, diseaseTree(t, "malaria", []float64{22, 33, 44}, saintetiq.PeerID(mod)))
	sys.MarkModified(mod)
	ct.Settle()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}
	if sys.Stats().Reconciliations == before || g.Snapshot().Installs == 0 {
		t.Fatal("the modification installed nothing")
	}

	direct, err := routing.RouteData(sys, origin, q)
	if err != nil {
		t.Fatal(err)
	}
	want := wireBody(direct)
	c := g.Connect()
	defer c.Close()
	ans, _, err := c.Query(origin, q)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wireBody(ans), want) {
		t.Error("in-process answer after the install differs from a direct RouteData")
	}
	replayed, _, err := dialTest(t, addr).Ask(origin, q)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wireBody(replayed), want) {
		t.Error("wire answer after the install differs from a direct RouteData")
	}
}

// TestWireClientAnswersStay: an answer WireClient.Ask returned is a view
// into its own frame body, so later Asks on the same client must leave it
// unchanged — while other clients ask and a reconciliation installs. Run
// under -race.
func TestWireClientAnswersStay(t *testing.T) {
	sys, ct, g, addr := servingSystem(t)
	const origin, clients, asks = 3, 4, 100
	queries := []query.Query{broadQuery(), diseaseQuery("anorexia"), diseaseQuery("malaria")}
	var wg sync.WaitGroup
	fail := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wc := dialTest(t, addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			first, _, err := wc.Ask(origin, broadQuery())
			if err != nil {
				fail <- err
				return
			}
			before := wireBody(first)
			for k := 0; k < asks; k++ {
				if _, _, err := wc.Ask(origin, queries[k%len(queries)]); err != nil {
					fail <- err
					return
				}
			}
			if !bytes.Equal(wireBody(first), before) {
				fail <- errors.New("an answer changed under later asks on its client")
			}
		}()
	}
	mod := p2p.NodeID(8)
	sys.SetLocalTree(mod, diseaseTree(t, "malaria", []float64{22, 33, 44}, saintetiq.PeerID(mod)))
	sys.MarkModified(mod)
	ct.Settle()
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}
	if g.Snapshot().Installs == 0 {
		t.Fatal("the modification installed nothing")
	}
}
