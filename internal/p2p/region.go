package p2p

import (
	"p2psum/internal/sim"
	"p2psum/internal/topology"
)

// Sharded (parallel) mode of the discrete-event Network: the node set is
// partitioned into regions, each owning one sim.Engine advanced in
// conservative lockstep windows by a sim.Sharded kernel (see the package
// comment there for the time model). The Network routes every schedule —
// message delivery, After timers — to the owning region and charges
// traffic to the sender's region ledger (books, merged on read like the
// per-group ledgers of the goroutine-backed transports).
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
	n := newNetwork(graph, seed, regions)
	n.shard = shard
	return n, nil
}

// Sharded returns the parallel kernel, or nil on a sequential Network.
func (n *Network) Sharded() *sim.Sharded { return n.shard }

// DispatchGroups returns the region count (1 on a sequential Network),
// satisfying DispatchGrouper so core's domain→group wiring reaches the
// sharded kernel through the same call it uses for the channel
// transport's dispatcher groups.
func (n *Network) DispatchGroups() int { return len(n.books) }

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
