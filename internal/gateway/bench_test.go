package gateway

import (
	"net"
	"testing"
	"time"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/data"
	"p2psum/internal/query"
	"p2psum/internal/saintetiq"
	"p2psum/internal/summarystore"
)

// BenchmarkGatewayCacheHit is the serving hot path: admission, fingerprint,
// generation-validated cache lookup. CI gates it at 0 allocs/op — the hit
// path must stay allocation-free end to end.
func BenchmarkGatewayCacheHit(b *testing.B) {
	st := newShardedStore(b)
	be := &fakeBackend{st: st}
	g := New(Config{Rate: 1e18}, be)
	c := g.Connect()
	defer c.Close()
	q := diseaseQuery("malaria")
	if _, _, err := c.Query(3, q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, hit, err := c.Query(3, q)
		if err != nil {
			b.Fatal(err)
		}
		if !hit {
			b.Fatal("warm cache missed")
		}
	}
}

// BenchmarkGatewayWireReplay measures a hit served through the wire body
// replay path (entry.encoded) — the per-hit cost once the body is built.
func BenchmarkGatewayWireReplay(b *testing.B) {
	st := newShardedStore(b)
	be := &fakeBackend{st: st}
	g := New(Config{Rate: 1e18}, be)
	c := g.Connect()
	defer c.Close()
	q := diseaseQuery("malaria")
	if _, _, err := c.Query(3, q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, hit, err := c.do(3, q)
		if err != nil || !hit {
			b.Fatal("warm cache missed")
		}
		if len(e.encoded()) == 0 {
			b.Fatal("empty wire body")
		}
	}
}

// BenchmarkWireClientAsk is one served query end to end over a loopback
// session: the client writes the query frame, the gateway replays the
// cached entry's bytes, and the client reads the result frame and decodes
// the answer. CI gates its allocs/op, which counts both ends: a rise
// means a layer of the served path went back to per-query garbage.
func BenchmarkWireClientAsk(b *testing.B) {
	g := New(Config{Rate: 1e18}, &fakeBackend{st: newShardedStore(b)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go g.ServeWire(ln)
	wc, err := DialWire(ln.Addr().String(), "bench-client")
	if err != nil {
		b.Fatal(err)
	}
	defer wc.Close()
	wc.Timeout = 5 * time.Second
	q := diseaseQuery("malaria")
	if _, _, err := wc.Ask(3, q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, hit, err := wc.Ask(3, q)
		if err != nil {
			b.Fatal(err)
		}
		if !hit {
			b.Fatal("warm cache missed")
		}
	}
}

// distinctQueries returns n distinct queries over b's vocabulary, each
// with a non-empty WHERE and SELECT. A counter scrambled by an odd
// multiplier — a bijection modulo a power of two — picks one label subset
// per attribute (no clause when empty) and the SELECT attributes.
func distinctQueries(b *bk.BK, n int) []query.Query {
	attrs := b.Attrs()
	bits := len(attrs)
	for _, a := range attrs {
		bits += len(a.Labels())
	}
	qs := make([]query.Query, 0, n)
	for x := uint64(0); len(qs) < n; x++ {
		code := x * 0x9e3779b97f4a7c15 & (1<<bits - 1)
		var q query.Query
		for _, a := range attrs {
			cl := query.Clause{Attr: a.Name}
			for _, lab := range a.Labels() {
				if code&1 != 0 {
					cl.Labels = append(cl.Labels, lab)
				}
				code >>= 1
			}
			if cl.Labels != nil {
				q.Where = append(q.Where, cl)
			}
		}
		for _, a := range attrs {
			if code&1 != 0 {
				q.Select = append(q.Select, a.Name)
			}
			code >>= 1
		}
		if len(q.Where) > 0 && len(q.Select) > 0 {
			qs = append(qs, q)
		}
	}
	return qs
}

// BenchmarkWireClientAskMiss is one gateway miss end to end over a
// loopback session: every ask is a query the gateway has not seen, so
// each one is admitted, fingerprinted, answered by query.AnswerStore on a
// store shaped like the serving workloads' (25 peers of 60 rows in 4
// shards), cached, encoded, written, read and decoded. CI gates its
// allocs/op, both ends counted.
func BenchmarkWireClientAskMiss(b *testing.B) {
	bkb := bk.Medical()
	cfg := saintetiq.DefaultConfig()
	st := summarystore.New(bkb, cfg, 4)
	mapper, err := cells.NewMapper(bkb, data.PatientSchema())
	if err != nil {
		b.Fatal(err)
	}
	for p := 0; p < 25; p++ {
		cs := cells.NewStore(mapper)
		cs.AddRelation(data.NewPatientGenerator(int64(700+p), nil).Generate("r", 60))
		tr := saintetiq.New(bkb, cfg)
		if err := tr.IncorporateStore(cs, saintetiq.PeerID(p)); err != nil {
			b.Fatal(err)
		}
		if err := st.Merge(tr); err != nil {
			b.Fatal(err)
		}
	}
	g := New(Config{Rate: 1e18}, &storeBackend{fakeBackend{st: st}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go g.ServeWire(ln)
	wc, err := DialWire(ln.Addr().String(), "bench-client")
	if err != nil {
		b.Fatal(err)
	}
	defer wc.Close()
	wc.Timeout = 5 * time.Second
	qs := distinctQueries(bkb, b.N+1)
	if _, _, err := wc.Ask(3, qs[b.N]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, hit, err := wc.Ask(3, qs[i])
		if err != nil {
			b.Fatal(err)
		}
		if hit {
			b.Fatal("a distinct query hit the cache")
		}
	}
}
