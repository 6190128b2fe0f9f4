package gateway

import (
	"net"
	"testing"
	"time"
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
