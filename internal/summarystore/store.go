// Package summarystore is the storage layer between summary management
// (internal/core) and the SaintEtiQ hierarchies (internal/saintetiq): a
// summary peer's global summary lives in a Store instead of being a bare
// *saintetiq.Tree.
//
// A Store partitions the leaves across one or more hierarchies, each with
// its own RWMutex, following the hierarchical-partitioning direction of
// distributed directory summarization: shards merge independently (and
// concurrently), reconciliation installs per-shard deltas instead of one
// whole-tree replacement, and queries visit their candidate shards and
// merge their graded results. A merge into one shard never blocks readers
// of the others, which is what lets a domain serve heavy concurrent query
// traffic.
//
// The paper's layout — the whole global summary as one in-memory tree
// under one lock — is the one-shard Store: its merges run the same
// tree.Merge, an install keeps the reconciled version itself as the tree,
// and Snapshot returns that live tree. Every leaf cell lands in exactly one
// shard and per-leaf aggregates are order-independent, so the
// structure-invariant query outputs (peer localization, selection weight,
// answered descriptors) are identical at every shard count over the same
// workload.
package summarystore

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"p2psum/internal/bk"
	"p2psum/internal/par"
	"p2psum/internal/saintetiq"
)

// Store is a summary peer's global summary, its leaves partitioned across
// independently lockable shards. The partition function is fixed at
// construction and must be the same on every peer of a domain (it is part
// of the store's layout, like the BK itself).
//
// Concurrency contract: Merge and SwapFrom are writers, View and the
// counters are readers; the store serializes them per shard, so any mix of
// calls from different goroutines is safe. Nodes obtained through View
// must not be retained beyond the callback when writers may run
// concurrently (a merge updates node aggregates in place).
type Store struct {
	partition partition
	// partitionAttr is the BK attribute of a descriptor-range partition
	// (-1 for opaque partitions like the key hash). It powers
	// CandidateShards: clause labels on this attribute name their owning
	// shards directly.
	partitionAttr int
	shards        []*shard
}

// shard is one independently lockable partition of the global summary.
// gen advances on every content change (merge or swap), inside the write
// lock, after the mutation — see Store.Generation for the freshness
// contract this ordering buys.
type shard struct {
	mu   sync.RWMutex
	tree *saintetiq.Tree
	gen  atomic.Uint64
}

// New builds an empty store over the background knowledge. shards <= 1
// builds the paper's one-tree layout. Beyond that the store partitions by
// descriptor range on the widest-vocabulary attribute while the shard
// count fits inside that vocabulary — every shard owns at least one
// descriptor, and CandidateShards prunes the fan-out of clauses on the
// attribute to the clause labels' shards — and falls back to the balanced
// leaf-key hash beyond it.
func New(b *bk.BK, cfg saintetiq.Config, shards int) *Store {
	attr := widestAttr(b)
	if shards <= 1 || shards > len(b.Attrs()[attr].Labels()) {
		return newStore(b, cfg, shards, byKeyHash)
	}
	s := newStore(b, cfg, shards, byDescriptor(attr))
	s.partitionAttr = attr
	return s
}

// newStore builds an empty store with an opaque partition function (no
// shard pruning).
func newStore(b *bk.BK, cfg saintetiq.Config, shards int, p partition) *Store {
	if shards < 1 {
		shards = 1
	}
	s := &Store{partition: p, partitionAttr: -1, shards: make([]*shard, shards)}
	for i := range s.shards {
		s.shards[i] = &shard{tree: saintetiq.New(b, cfg)}
	}
	return s
}

// NumShards returns the number of independently lockable shards.
func (s *Store) NumShards() int { return len(s.shards) }

// View runs fn on shard i's hierarchy under that shard's read lock. fn
// must not mutate the tree.
func (s *Store) View(i int, fn func(*saintetiq.Tree)) {
	sh := s.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	fn(sh.tree)
}

// Merge folds src's leaves into the store (Merging(src, S) of §6.1.1),
// routing them to their shards and merging every affected shard
// concurrently, each under its own shard's write lock. Shards that own
// none of src's leaves are never locked at all, so a partner's small delta
// blocks readers of one or two shards for the duration of a small merge
// instead of stalling the whole summary — the property that lets a domain
// keep answering queries while refreshes stream in.
func (s *Store) Merge(src *saintetiq.Tree) error {
	if src == nil || src.Empty() {
		return nil
	}
	buckets := s.bucket(src)
	var affected []int
	for i, b := range buckets {
		if len(b) > 0 {
			affected = append(affected, i)
		}
	}
	// Small deltas (the common partner-refresh case) merge shard by shard
	// inline: brief per-shard locks with no goroutine overhead. Large
	// merges (initial builds, reconciled versions) fan the per-shard work
	// across a CPU-bounded pool.
	workers := 1
	if src.LeafCount() >= 64 {
		workers = 0 // one per CPU (par clamps to the shard count)
	}
	return par.ForEach(workers, len(affected), func(k int) error {
		sh := s.shards[affected[k]]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		err := sh.tree.MergeLeaves(src, buckets[affected[k]])
		if err == nil {
			sh.gen.Add(1)
		}
		return err
	})
}

// bucket splits t's leaves by owning shard in one pass over the sorted
// leaf order (so per-shard incorporation order is deterministic). One
// shard owns every leaf without consulting the partition.
func (s *Store) bucket(t *saintetiq.Tree) [][]saintetiq.Node {
	n := len(s.shards)
	if n == 1 {
		return [][]saintetiq.Node{t.Leaves()}
	}
	buckets := make([][]saintetiq.Node, n)
	for _, leaf := range t.Leaves() {
		i := s.partition(t, leaf, n)
		if i < 0 || i >= n {
			panic(fmt.Sprintf("summarystore: partition returned shard %d of %d", i, n))
		}
		buckets[i] = append(buckets[i], leaf)
	}
	return buckets
}

// SwapFrom installs the contents of newGS as the store's new state — the
// per-shard-delta form of the §4.2.2 "one update operation" at the end of
// a reconciliation. A shard whose leaves are unchanged keeps its current
// tree AND its generation (readers keep their warm structure), every other
// shard is replaced under its own write lock while readers proceed on the
// rest of the store. Returns the number of shards actually replaced; nil
// clears the store.
//
// A one-shard store takes newGS itself as its tree, as the paper installs
// the reconciled version: do not mutate newGS afterwards. With more shards
// newGS is split by the store's partition outside any lock and is not
// retained.
func (s *Store) SwapFrom(newGS *saintetiq.Tree) int {
	n := len(s.shards)
	parts := make([]*saintetiq.Tree, n)
	switch {
	case n == 1:
		parts[0] = newGS
	case newGS != nil:
		// Bucket once, split concurrently: each shard's portion is an
		// independent tree built outside any lock. A split cannot fail on
		// vocabulary (the parts are NewLike trees of newGS itself), so any
		// error is an invariant violation.
		buckets := s.bucket(newGS)
		err := par.ForEach(0, n, func(i int) error {
			part := newGS.NewLike()
			if err := part.MergeLeaves(newGS, buckets[i]); err != nil {
				return err
			}
			parts[i] = part
			return nil
		})
		if err != nil {
			panic(fmt.Sprintf("summarystore: shard split: %v", err))
		}
	}
	swapped := 0
	for i, sh := range s.shards {
		part := parts[i]
		if part == nil {
			part = sh.tree.NewLike()
		}
		sh.mu.Lock()
		if sh.tree.LeavesEqual(part) {
			sh.mu.Unlock()
			continue // unchanged shard: keep the warm tree AND its generation
		}
		sh.tree = part
		sh.gen.Add(1)
		sh.mu.Unlock()
		swapped++
	}
	return swapped
}

// Snapshot returns the store's content as one standalone hierarchy. A
// one-shard store returns its live tree (do not mutate it); with more
// shards, Snapshot merges them into a fresh tree in shard order, so the
// result is deterministic.
func (s *Store) Snapshot() *saintetiq.Tree {
	if len(s.shards) == 1 {
		return s.Vocab()
	}
	out := s.shards[0].tree.NewLike()
	for i := range s.shards {
		s.View(i, func(t *saintetiq.Tree) {
			// Merging into the private out tree cannot fail on vocabulary:
			// all shards share the same BK by construction.
			if err := out.Merge(t); err != nil {
				panic(fmt.Sprintf("summarystore: snapshot merge: %v", err))
			}
		})
	}
	return out
}

// Vocab returns shard 0's live tree, for label/attribute lookups that need
// no data (attribute vocabulary is immutable and identical across shards).
func (s *Store) Vocab() *saintetiq.Tree {
	s.shards[0].mu.RLock()
	defer s.shards[0].mu.RUnlock()
	return s.shards[0].tree
}

// CandidateShards returns the shards that can possibly hold leaves whose
// descriptor on the given attribute belongs to the given canonical label
// set (deduplicated, ascending) — the shard-pruning hook of
// descriptor-range partitioning: a conjunctive query clause on the
// partition attribute restricts the fan-out to the owning shards. nil
// means "cannot prune on this attribute" (every shard is a candidate), as
// for opaque partitions and other attributes.
func (s *Store) CandidateShards(attr int, labels []int) []int {
	if attr != s.partitionAttr || s.partitionAttr < 0 || len(labels) == 0 {
		return nil
	}
	out := make([]int, len(labels))
	for k, j := range labels {
		out[k] = j % len(s.shards)
	}
	sort.Ints(out)
	return slices.Compact(out)
}

// Generation returns shard i's install generation: a counter that
// advances every time the shard's content changes — a Merge routed leaves
// into it, or SwapFrom replaced its tree. A reconciliation that leaves a
// shard's leaves untouched does NOT advance that shard's generation, which
// is what lets a serving-edge cache invalidate exactly the entries whose
// shards changed instead of flushing globally. Reads are atomic and
// lock-free: cheap enough to revalidate on every cached query. The counter
// is monotone per shard; a cached result captured at generation g for
// every shard it read stays servable exactly while those generations still
// read g.
func (s *Store) Generation(i int) uint64 {
	return s.shards[i].gen.Load()
}

// NodeCount returns the total number of summary nodes across shards (each
// shard contributes its own root).
func (s *Store) NodeCount() int {
	total := 0
	for i := range s.shards {
		s.View(i, func(t *saintetiq.Tree) { total += t.NodeCount() })
	}
	return total
}

// LeafCount returns the total number of grid-cell leaves.
func (s *Store) LeafCount() int {
	total := 0
	for i := range s.shards {
		s.View(i, func(t *saintetiq.Tree) { total += t.LeafCount() })
	}
	return total
}

// Weight returns the total tuple weight described by the store.
func (s *Store) Weight() float64 {
	var total float64
	for i := range s.shards {
		s.View(i, func(t *saintetiq.Tree) { total += t.Root().Count() })
	}
	return total
}
