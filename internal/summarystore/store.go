// Package summarystore is the storage layer between summary management
// (internal/core) and the SaintEtiQ hierarchies (internal/saintetiq): a
// summary peer's global summary lives behind the Store interface instead of
// being a bare *saintetiq.Tree.
//
// Two implementations ship with the package:
//
//   - Single wraps one hierarchy under one RWMutex — the paper's layout,
//     where every query, merge and reconciliation serializes on a single
//     in-memory tree.
//
//   - Sharded partitions the leaves across several hierarchies, each with
//     its own RWMutex, following the hierarchical-partitioning direction of
//     distributed directory summarization: shards merge independently (and
//     concurrently), reconciliation installs per-shard deltas instead of one
//     whole-tree replacement, and queries fan out across shards and merge
//     their graded results. A merge into one shard never blocks readers of
//     the others, which is what lets a domain serve heavy concurrent query
//     traffic.
//
// Both implementations summarize the same data to the same leaves: every
// leaf cell lands in exactly one shard, per-leaf aggregates are
// order-independent, and the structure-invariant query outputs (peer
// localization, selection weight, answered descriptors) are identical
// between Single and Sharded stores over the same workload.
package summarystore

import (
	"hash/fnv"

	"p2psum/internal/bk"
	"p2psum/internal/saintetiq"
)

// Store is a summary peer's global summary: the set of operations the
// protocol (internal/core), query (internal/query) and reporting layers
// need, independent of how the hierarchy is laid out in memory.
//
// Concurrency contract: Merge and SwapFrom are writers, View and the
// counters are readers; every implementation serializes them per shard, so
// any mix of calls from different goroutines is safe. Nodes obtained
// through View must not be retained beyond the callback when writers may
// run concurrently (a merge updates node aggregates in place).
type Store interface {
	// NumShards returns the number of independently lockable shards
	// (1 for Single).
	NumShards() int
	// View runs fn on shard i's hierarchy under that shard's read lock.
	// fn must not mutate the tree.
	View(i int, fn func(*saintetiq.Tree))
	// Merge folds src's leaves into the store (Merging(src, S) of §6.1.1,
	// routed to the owning shards). Shards merge under their own write
	// locks, so a sharded merge only ever blocks readers of the shards it
	// touches.
	Merge(src *saintetiq.Tree) error
	// SwapFrom installs the contents of newGS as the store's new state —
	// the §4.2.2 "one update operation" at the end of a reconciliation.
	// Sharded stores split newGS and swap shard by shard, keeping the
	// current tree for shards whose leaves did not change (per-shard
	// deltas); the returned count is the number of shards actually
	// replaced. newGS is not retained; nil clears the store.
	SwapFrom(newGS *saintetiq.Tree) int
	// Snapshot returns the store's content as one standalone hierarchy.
	// Single returns its live tree (do not mutate); Sharded merges the
	// shards into a fresh tree.
	Snapshot() *saintetiq.Tree
	// Vocab returns a (possibly empty) hierarchy exposing the store's
	// attribute vocabulary, for label/attribute lookups that need no data.
	Vocab() *saintetiq.Tree
	// CandidateShards returns the shards that can possibly hold leaves
	// whose descriptor on the given attribute belongs to the given
	// canonical label set — the shard-pruning hook of descriptor-range
	// partitioning: a conjunctive query clause on the partition attribute
	// restricts the fan-out to the owning shards. nil means "cannot
	// prune on this attribute" (every shard is a candidate).
	CandidateShards(attr int, labels []int) []int
	// Generation returns shard i's install generation: a counter that
	// advances every time the shard's content changes — a Merge routed
	// leaves into it, or SwapFrom replaced its tree. A reconciliation that
	// leaves a shard's leaves untouched does NOT advance that shard's
	// generation, which is what lets a serving-edge cache invalidate
	// exactly the entries whose shards changed instead of flushing
	// globally. Reads are atomic and lock-free: cheap enough to revalidate
	// on every cached query. The counter is monotone per shard; a cached
	// result captured at generation g for every shard it read stays
	// servable exactly while those generations still read g.
	Generation(i int) uint64
	// NodeCount returns the total number of summary nodes across shards.
	NodeCount() int
	// LeafCount returns the total number of grid-cell leaves.
	LeafCount() int
	// Weight returns the total tuple weight described by the store.
	Weight() float64
}

// Partition decides which shard of n a leaf belongs to. It must be
// deterministic in the leaf's content (never in insertion order or memory
// layout) so that the same data always lands in the same shard on every
// peer and every run.
type Partition func(t *saintetiq.Tree, leaf saintetiq.Node, n int) int

// ByDescriptor builds the BK attribute-range split on the given attribute:
// shard = the leaf's top-level descriptor index on that attribute, mod n.
// All cells sharing a descriptor stay together, which is what enables
// shard pruning — a query clause on the attribute restricts the fan-out to
// the clause labels' shards. The effective shard count is capped at the
// attribute's vocabulary size, and the split inherits the data's skew on
// that attribute; prefer NewShardedByDescriptor, which also wires the
// pruning hook.
func ByDescriptor(attr int) Partition {
	return func(_ *saintetiq.Tree, leaf saintetiq.Node, n int) int {
		idx := leaf.LabelIndexes(attr)
		if len(idx) == 0 {
			return 0
		}
		return idx[0] % n
	}
}

// ByTopDescriptor is the attribute-range split on the first BK attribute.
var ByTopDescriptor = ByDescriptor(0)

// ByKeyHash partitions leaves by an FNV-1a hash of their cell key — the
// subtree-hash split: balanced regardless of data skew and effective at any
// shard count, but without a pruning hook (every query touches every
// shard).
func ByKeyHash(_ *saintetiq.Tree, leaf saintetiq.Node, n int) int {
	h := fnv.New32a()
	h.Write([]byte(leaf.Key()))
	return int(h.Sum32() % uint32(n))
}

// widestAttr returns the index of the attribute with the largest
// vocabulary (ties break on the lower index) — the partition attribute
// that keeps the most shards effective and prunes the most selective
// clauses.
func widestAttr(b *bk.BK) int {
	best, bestLen := 0, -1
	for i, a := range b.Attrs() {
		if l := len(a.Labels()); l > bestLen {
			best, bestLen = i, l
		}
	}
	return best
}

// New builds a store over the background knowledge: Single when shards <= 1,
// Sharded otherwise. The sharded store partitions by descriptor range on
// the widest-vocabulary attribute while the shard count fits inside that
// vocabulary (every shard owns at least one descriptor and clauses on the
// attribute prune the fan-out), and falls back to the balanced leaf-key
// hash beyond it; use NewSharded or NewShardedByDescriptor to pick the
// layout explicitly.
func New(b *bk.BK, cfg saintetiq.Config, shards int) Store {
	if shards <= 1 {
		return NewSingle(saintetiq.New(b, cfg))
	}
	if attr := widestAttr(b); shards <= len(b.Attrs()[attr].Labels()) {
		return NewShardedByDescriptor(b, cfg, shards, attr)
	}
	return NewSharded(b, cfg, shards, ByKeyHash)
}
