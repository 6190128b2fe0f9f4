package p2p

import (
	"math/rand"
	"sync"

	"p2psum/internal/liveness"
	"p2psum/internal/sim"
	"p2psum/internal/stats"
	"p2psum/internal/topology"
)

// Sharded (parallel) mode of the discrete-event Network: the node set is
// partitioned into regions, each owning one sim.Engine advanced in
// conservative lockstep windows by a sim.Sharded kernel (see the package
// comment there for the time model). The Network routes every schedule —
// message delivery, After timers — to the owning region and keeps
// per-region message/byte books merged on read, the same
// sharded-bookkeeping pattern the channel transport uses for its
// dispatch groups.
//
// Region assignment rides the existing dispatch-group machinery:
// internal/core calls SetGroupBy at AssignSummaryPeers time (before any
// traffic) with the domain→group partition from topology.NearestSeeds,
// and the Network derives the lookahead as the minimum latency of any
// edge crossing regions (capped by DirectLatency, since any node pair
// may exchange direct messages).
//
// Determinism contract: a sharded run is bit-identical to the sequential
// engine as long as cross-region interactions are limited to message
// sends (the conservative windows order those deterministically).
// Synchronous cross-region effects — a walk reading another region's
// liveness state mid-churn, or a dropped cross-region message mutating
// the sender via the drop callback — execute under the receiving
// region's clock and are only deterministic when the partition keeps the
// interacting nodes in one region (true for domain-aligned partitions,
// which NearestSeeds produces). Periodic gossip is rejected on this
// transport exactly as in sequential mode.

// regionBook is one region's private message/byte ledger. The owning
// region's worker is effectively the only writer during a window (a
// node's sends charge the sender's region), but the mutex also covers
// the rare cross-region writers — drop callbacks acting for a remote
// sender — and the merged Counter()/Bytes() reads.
type regionBook struct {
	mu      sync.Mutex
	counter *stats.Counter
	bytes   *stats.Counter
	nextMsg uint64
}

// NewShardedNetwork builds a Network whose events execute on a sharded
// kernel with the given region count. All nodes start in region 0 (fully
// sequential) until SetGroupBy installs a partition; regions must be
// >= 1, and NewShardedNetwork(g, seed, 1) behaves bit-identically to
// NewNetwork.
func NewShardedNetwork(graph *topology.Graph, seed int64, regions int) (*Network, error) {
	shard, err := sim.NewSharded(graph.Len(), regions)
	if err != nil {
		return nil, err
	}
	n := &Network{
		graph:         graph,
		rng:           rand.New(rand.NewSource(seed)),
		view:          liveness.NewView(graph.Len(), nil),
		handler:       make([]Handler, graph.Len()),
		DirectLatency: 0.100,
		shard:         shard,
		books:         make([]regionBook, regions),
	}
	for i := range n.books {
		n.books[i].counter = stats.NewCounter()
		n.books[i].bytes = stats.NewCounter()
	}
	return n, nil
}

// Sharded returns the parallel kernel, or nil on a sequential Network.
func (n *Network) Sharded() *sim.Sharded { return n.shard }

// DispatchGroups returns the region count (1 on a sequential Network),
// satisfying DispatchGrouper so core's domain→group wiring reaches the
// sharded kernel through the same call it uses for the channel
// transport's dispatcher groups.
func (n *Network) DispatchGroups() int {
	if n.shard == nil {
		return 1
	}
	return n.shard.Regions()
}

// SetGroupBy installs the node→region partition (reduced modulo the
// region count) and derives the conservative lookahead from it. It
// reports whether the mapping was applied: the sequential Network and a
// kernel that has already scheduled events keep their mapping and
// return false.
func (n *Network) SetGroupBy(fn func(NodeID) int) bool {
	if n.shard == nil {
		return false
	}
	d := n.shard.Regions()
	part := make([]int, n.graph.Len())
	for i := range part {
		g := fn(NodeID(i)) % d
		if g < 0 {
			g += d
		}
		part[i] = g
	}
	return n.shard.SetPartition(part, n.lookaheadFor(part)) == nil
}

// KernelStats returns the sharded kernel's window counters and whether
// this Network runs a sharded kernel at all.
func (n *Network) KernelStats() (sim.ShardedStats, bool) {
	if n.shard == nil {
		return sim.ShardedStats{}, false
	}
	return n.shard.Stats(), true
}

// lookaheadFor computes the conservative window width for a partition:
// the minimum latency of any edge whose endpoints land in different
// regions, capped by DirectLatency (off-graph sends use it, and any
// node pair may exchange one).
func (n *Network) lookaheadFor(part []int) sim.Time {
	min := n.DirectLatency
	for u := 0; u < n.graph.Len(); u++ {
		pu := part[u]
		adj := n.graph.Neighbors(u)
		for i, v := range adj {
			if part[v] != pu {
				if l := n.graph.LatencyAt(u, i); l < min {
					min = l
				}
			}
		}
	}
	return sim.Time(min)
}

// book returns the ledger charged for traffic originating at src.
func (n *Network) book(src NodeID) *regionBook {
	return &n.books[n.shard.RegionOf(int(src))]
}

// sendSharded is Send's parallel-kernel path: charge the sender's
// region book, then route the delivery to the destination's region
// (directly onto its heap when src and dst share a region, staged at
// the next window barrier otherwise).
func (n *Network) sendSharded(msg *Message) {
	src := n.shard.RegionOf(int(msg.From))
	b := &n.books[src]
	size := messageWireSize(msg)
	b.mu.Lock()
	b.nextMsg++
	if msg.ID == 0 {
		// Region-striped ids: unique across regions without global state.
		msg.ID = b.nextMsg*uint64(len(n.books)) + uint64(src) + 1
	}
	b.counter.Inc(msg.Type)
	b.bytes.Add(msg.Type, size)
	b.mu.Unlock()
	lat := n.latencyBetween(msg.From, msg.To)
	at := n.shard.RegionNow(src) + sim.Time(lat)
	n.shard.Schedule(int(msg.From), int(msg.To), at, func() { n.deliver(msg) })
}

// regionLink charges flood/walk transmissions to the originating
// region's book while traversing the shared overlay view.
type regionLink struct {
	n    *Network
	book *regionBook
}

func (l regionLink) Neighbors(id NodeID) []NodeID { return l.n.Neighbors(id) }

func (l regionLink) charge(typ string, k int64) {
	l.book.mu.Lock()
	l.book.counter.Add(typ, k)
	l.book.bytes.Add(typ, k*BaseMessageBytes)
	l.book.mu.Unlock()
}

// linkFor returns the metering view for a traversal originating at src:
// the Network itself in sequential mode, the origin's region ledger in
// sharded mode.
func (n *Network) linkFor(src NodeID) linkView {
	if n.books == nil {
		return n
	}
	return regionLink{n: n, book: n.book(src)}
}

// mergedBooks folds the per-region ledgers into one snapshot.
func mergedBooks(books []regionBook, pick func(*regionBook) *stats.Counter) *stats.Counter {
	out := stats.NewCounter()
	for i := range books {
		b := &books[i]
		b.mu.Lock()
		out.Merge(pick(b))
		b.mu.Unlock()
	}
	return out
}
