package core

import (
	"math/rand"
	"testing"

	"p2psum/internal/liveness"
	"p2psum/internal/p2p"
	"p2psum/internal/sim"
	"p2psum/internal/topology"
	"p2psum/internal/wire"
)

// BenchmarkGossipRound measures full liveness-gossip rounds over a
// 200-node multi-domain overlay on the discrete-event engine, including
// the dispatch and merge of every tail. Steady-state rounds send deltas,
// so the cost tracks how much actually changed: each iteration flips one
// node offline and back so the tails stay realistic instead of empty.
func BenchmarkGossipRound(b *testing.B) {
	g, err := topology.BarabasiAlbert(200, 2, nil, rand.New(rand.NewSource(11)))
	if err != nil {
		b.Fatal(err)
	}
	engine := sim.New()
	net := p2p.NewNetwork(engine, g, 11)
	cfg := DefaultConfig()
	cfg.GossipPiggyback = true
	sys, err := NewSystem(net, cfg)
	if err != nil {
		b.Fatal(err)
	}
	sys.ElectSummaryPeers(4)
	if err := sys.Construct(); err != nil {
		b.Fatal(err)
	}
	net.Settle()
	sps := make(map[p2p.NodeID]bool)
	for _, sp := range sys.SummaryPeers() {
		sps[sp] = true
	}
	var clients []p2p.NodeID
	for id := 0; id < net.Len(); id++ {
		if !sps[p2p.NodeID(id)] {
			clients = append(clients, p2p.NodeID(id))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := clients[i%len(clients)]
		sys.Leave(id, false)
		sys.GossipRound()
		net.Settle()
		sys.Join(id)
		sys.GossipRound()
		net.Settle()
	}
}

// BenchmarkGossipTail is one piggyback tail on the hot path: a 500-node
// view with a third of it changed since the partner's base. Each iteration
// builds the tail (View.Since), charges its bytes on a counting encoder as
// the transports do, and merges it — back into the view that published it,
// as on the in-memory transports, and into a partner's copy, as a TCP peer
// does. Every tail of one version shares one published snapshot and a
// counted tail is never encoded, so none of it may allocate (CI gates
// allocs/op == 0 via benchgate).
func BenchmarkGossipTail(b *testing.B) {
	view := liveness.NewView(500, nil)
	base := view.Version()
	for id := 0; id < 500; id += 3 {
		view.MarkDead(id)
	}
	partner := liveness.NewView(500, nil)
	partner.Merge(view.Snapshot())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tail := GossipTail{Ack: base}
		tail.Delta, tail.Ver = view.Since(base)
		e := wire.GetCountEnc()
		encodeLivenessTail(e, &tail)
		if n := e.Len(); n < 167*3 {
			b.Fatalf("tail counted %d bytes for 167 entries", n)
		}
		e.Release()
		view.MergeChanges(tail.Delta)
		partner.MergeChanges(tail.Delta)
	}
}
