package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"p2psum/internal/p2p"
	"p2psum/internal/query"
	"p2psum/internal/routing"
	"p2psum/internal/saintetiq"
	"p2psum/internal/wire"
)

// gwSamples mirrors the registry round-trip discipline of the routing
// codec tests for the gateway's three message types (the routing test
// binary does not link this package, so the coverage lives here).
var gwSamples = map[string]any{
	MsgGwHello: HelloPayload{Name: "loadgen-3"},
	MsgGwQuery: ClientQueryPayload{
		QID:    77,
		Origin: 12,
		Query: query.Query{
			Select: []string{"age", "bmi"},
			Where:  []query.Clause{{Attr: "disease", Labels: []string{"malaria", "influenza"}}},
		},
	},
	MsgGwResult: ResultPayload{
		QID: 77,
		Hit: true,
		Answer: &routing.DataAnswer{
			Peers:   []p2p.NodeID{3, 9},
			Visited: 4,
			Answer: &query.Answer{
				Query:   query.Query{Select: []string{"age"}},
				Classes: []query.Class{{Weight: 2, Peers: []saintetiq.PeerID{3}}},
			},
		},
	},
}

func TestGatewayCodecsRoundTrip(t *testing.T) {
	for typ, sample := range gwSamples {
		codec, ok := wire.Lookup(typ)
		if !ok {
			t.Fatalf("%s not registered", typ)
		}
		e := wire.GetEnc()
		if err := codec.Encode(e, sample); err != nil {
			t.Fatalf("%s encode: %v", typ, err)
		}
		buf := append([]byte(nil), e.Bytes()...)
		e.Release()
		got, err := codec.Decode(buf)
		if err != nil {
			t.Fatalf("%s decode: %v", typ, err)
		}
		if !reflect.DeepEqual(got, sample) {
			t.Errorf("%s round trip:\n got %#v\nwant %#v", typ, got, sample)
		}
		// Every truncation must fail loudly, never mis-decode.
		for n := 0; n < len(buf); n++ {
			if _, err := codec.Decode(buf[:n]); err == nil {
				t.Errorf("%s accepted a %d/%d-byte prefix", typ, n, len(buf))
			}
		}
		// Wrong payload kind is a codec error, not a panic.
		e = wire.GetEnc()
		if err := codec.Encode(e, struct{}{}); err == nil {
			t.Errorf("%s encoded a foreign payload", typ)
		}
		e.Release()
	}
}

// TestServeWire: end-to-end over a loopback socket — handshake, a miss,
// then a hit replayed from the entry's pre-encoded bytes, and an error
// result for a bad origin.
func TestServeWire(t *testing.T) {
	st := newShardedStore(t)
	be := &fakeBackend{st: st}
	g := New(Config{Rate: 1e9}, be)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go g.ServeWire(ln)

	wc, err := DialWire(ln.Addr().String(), "test-client")
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	wc.Timeout = 5 * time.Second

	q := diseaseQuery("malaria")
	ans, hit, err := wc.Ask(3, q)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("cold cache hit")
	}
	if len(ans.Peers) != 1 || ans.Peers[0] != 3 {
		t.Errorf("answer peers = %v", ans.Peers)
	}
	ans2, hit, err := wc.Ask(3, q)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("warm query missed")
	}
	if !reflect.DeepEqual(ans, ans2) {
		t.Errorf("replayed answer differs:\n got %#v\nwant %#v", ans2, ans)
	}
	if _, _, err := wc.Ask(-1, q); err == nil {
		t.Error("bad origin accepted over the wire")
	}
	// The connection survives an error result.
	if _, _, err := wc.Ask(3, q); err != nil {
		t.Fatalf("session dead after error result: %v", err)
	}
	if s := g.Snapshot(); s.Hits < 2 || s.Misses != 1 {
		t.Errorf("hits=%d misses=%d, want >=2 and 1", s.Hits, s.Misses)
	}
}

// TestServeWirePipelined: many concurrent asks, one session each, against
// one blocked upstream — every session's reader must hand its query to an
// answer goroutine and keep reading, and the flights must coalesce.
func TestServeWirePipelined(t *testing.T) {
	be := &fakeBackend{block: make(chan struct{}), entered: make(chan struct{})}
	g := New(Config{Rate: 1e9}, be)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go g.ServeWire(ln)

	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc, err := DialWire(ln.Addr().String(), "c")
			if err != nil {
				errs <- err
				return
			}
			defer wc.Close()
			wc.Timeout = 10 * time.Second
			_, _, err = wc.Ask(3, diseaseQuery("malaria"))
			errs <- err
		}()
	}
	<-be.entered
	deadline := time.Now().Add(5 * time.Second)
	for g.Snapshot().Coalesced < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d coalesced", g.Snapshot().Coalesced, n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(be.block)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := be.execs.Load(); got != 1 {
		t.Fatalf("upstream executions = %d, want 1", got)
	}
}

// gateBackend is a fakeBackend whose Execute parks every query on the
// disease label blocked until release closes.
type gateBackend struct {
	fakeBackend
	blocked string
	entered chan struct{} // closed when the blocked query reaches Execute
	release chan struct{}
}

func (b *gateBackend) Execute(origin p2p.NodeID, q query.Query) (*routing.DataAnswer, error) {
	if q.Where[0].Labels[0] == b.blocked {
		close(b.entered)
		<-b.release
	}
	return b.fakeBackend.Execute(origin, q)
}

// TestServeConnPipelinesOneSession: two query frames written back to back
// on one raw session, the first parked upstream. The second must be
// answered while the first is still parked, so the session's reader cannot
// be the goroutine that answers. Closing the connection with the first
// still parked must then end serveConn, which returns only after every
// answer goroutine of the session has exited.
func TestServeConnPipelinesOneSession(t *testing.T) {
	be := &gateBackend{blocked: "malaria", entered: make(chan struct{}), release: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(be.release) }) }
	defer release()
	g := New(Config{Rate: 1e9}, be)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		if conn, err := ln.Accept(); err == nil {
			g.serveConn(conn)
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	br, hdr := bufio.NewReader(conn), make([]byte, 4)
	var body []byte
	var wmu sync.Mutex
	if err := writeFrameUnit(&wmu, conn, MsgGwHello, func(pe *wire.Enc) { pe.String("raw") }); err != nil {
		t.Fatal(err)
	}
	if f, err := readFrameUnit(br, hdr, &body); err != nil || f.Type != MsgGwHello {
		t.Fatalf("hello: %v", err)
	}
	for qid, disease := range []string{"malaria", "influenza"} {
		if err := writeFrameUnit(&wmu, conn, MsgGwQuery, func(pe *wire.Enc) {
			pe.Uvarint(uint64(qid + 1))
			pe.Varint(3)
			routing.EncodeFlexQuery(pe, diseaseQuery(disease))
		}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-be.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the first query never reached the upstream")
	}
	f, err := readFrameUnit(br, hdr, &body)
	if err != nil {
		t.Fatalf("no result while the first query is parked: %v", err)
	}
	pl, err := decodeResult(wire.NewDecShared(f.Payload))
	if err != nil {
		t.Fatal(err)
	}
	if pl.QID != 2 || pl.Err != "" {
		t.Fatalf("first result: qid %d, error %q; want qid 2 answered", pl.QID, pl.Err)
	}

	conn.Close()
	release()
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("serveConn still running after its connection closed")
	}
	if s := g.Snapshot(); s.ActiveClients != 0 {
		t.Errorf("active clients = %d after the session ended, want 0", s.ActiveClients)
	}
}

// TestHTTPHandler: the JSON adapter round-trips a query, reports hits,
// serves stats, and maps admission errors to retryable status codes.
func TestHTTPHandler(t *testing.T) {
	st := newShardedStore(t)
	be := &fakeBackend{st: st}
	g := New(Config{Rate: 1e9}, be)
	srv := httptest.NewServer(g.HTTPHandler())
	defer srv.Close()

	body := `{"origin":3,"select":["age"],"where":[{"attr":"disease","labels":["malaria","influenza"]}]}`
	post := func() map[string]any {
		t.Helper()
		resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := post()
	if first["hit"] != false {
		t.Error("cold query reported a hit")
	}
	second := post()
	if second["hit"] != true {
		t.Error("warm query reported a miss")
	}
	// Label reordering in JSON lands on the same cache key (the adapter
	// normalizes): still a hit.
	body = `{"origin":3,"select":["age"],"where":[{"attr":"disease","labels":["influenza","malaria"]}]}`
	if post()["hit"] != true {
		t.Error("normalized respelling missed")
	}

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var s Stats
	err = json.NewDecoder(resp.Body).Decode(&s)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if s.Queries < 3 || s.Hits < 2 {
		t.Errorf("stats queries=%d hits=%d", s.Queries, s.Hits)
	}

	// Malformed body and wrong method are client errors.
	resp, _ = http.Post(srv.URL+"/query", "application/json", bytes.NewBufferString("{"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status = %d", resp.StatusCode)
	}
	resp, _ = http.Get(srv.URL + "/query")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query status = %d", resp.StatusCode)
	}
}

// TestHTTPThrottled: an over-rate HTTP client gets 429.
func TestHTTPThrottled(t *testing.T) {
	be := &fakeBackend{}
	g := New(Config{Rate: 1e-9}, be)
	srv := httptest.NewServer(g.HTTPHandler())
	defer srv.Close()
	body := `{"origin":3,"where":[{"attr":"disease","labels":["malaria"]}]}`
	codes := make([]int, 0, 2)
	for i := 0; i < 2; i++ {
		resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		codes = append(codes, resp.StatusCode)
	}
	if codes[0] != http.StatusOK || codes[1] != http.StatusTooManyRequests {
		t.Errorf("codes = %v, want [200 429]", codes)
	}
}
