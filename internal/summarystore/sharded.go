package summarystore

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"p2psum/internal/bk"
	"p2psum/internal/par"
	"p2psum/internal/saintetiq"
)

// Sharded partitions the global summary's leaves across several
// hierarchies, each guarded by its own RWMutex. Merges write-lock only the
// shards they touch and run concurrently across shards; reconciliation
// installs per-shard deltas; queries fan out across shards under read
// locks. The partition function is fixed at construction and must be the
// same on every peer of a domain (it is part of the store's layout, like
// the BK itself).
type Sharded struct {
	partition Partition
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

// NewSharded builds an empty sharded store over the background knowledge
// with an opaque partition function (no shard pruning). Use
// NewShardedByDescriptor for the attribute-range layout that can prune.
func NewSharded(b *bk.BK, cfg saintetiq.Config, shards int, p Partition) *Sharded {
	if shards < 1 {
		shards = 1
	}
	s := &Sharded{partition: p, partitionAttr: -1, shards: make([]*shard, shards)}
	for i := range s.shards {
		s.shards[i] = &shard{tree: saintetiq.New(b, cfg)}
	}
	return s
}

// NewShardedByDescriptor builds a sharded store partitioned by descriptor
// range on the given BK attribute, wiring the CandidateShards pruning
// hook: a query clause on that attribute fans out only to the clause
// labels' shards.
func NewShardedByDescriptor(b *bk.BK, cfg saintetiq.Config, shards, attr int) *Sharded {
	s := NewSharded(b, cfg, shards, ByDescriptor(attr))
	s.partitionAttr = attr
	return s
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// View runs fn on shard i's hierarchy under that shard's read lock.
func (s *Sharded) View(i int, fn func(*saintetiq.Tree)) {
	sh := s.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	fn(sh.tree)
}

// Merge routes src's leaves to their shards and merges every affected
// shard concurrently, each under its own shard's write lock. Shards that
// own none of src's leaves are never locked at all, so a partner's small
// delta blocks readers of one or two shards for the duration of a small
// merge instead of stalling the whole summary — the property that lets a
// domain keep answering queries while refreshes stream in.
func (s *Sharded) Merge(src *saintetiq.Tree) error {
	if src == nil || src.Empty() {
		return nil
	}
	// Bucket src's leaves by owning shard in one pass over the sorted leaf
	// order (so per-shard incorporation order is deterministic).
	buckets := make([][]saintetiq.Node, len(s.shards))
	var affected []int
	for _, leaf := range src.Leaves() {
		i := s.shardOf(src, leaf)
		if buckets[i] == nil {
			affected = append(affected, i)
		}
		buckets[i] = append(buckets[i], leaf)
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

// shardOf clamps the partition function into [0, len(shards)).
func (s *Sharded) shardOf(t *saintetiq.Tree, leaf saintetiq.Node) int {
	i := s.partition(t, leaf, len(s.shards))
	if i < 0 || i >= len(s.shards) {
		panic(fmt.Sprintf("summarystore: partition returned shard %d of %d", i, len(s.shards)))
	}
	return i
}

// SwapFrom splits newGS by the store's partition and installs the result
// one shard at a time — the per-shard-delta form of the §4.2.2 "one update
// operation": a shard whose leaves are unchanged keeps its current tree
// (readers keep their warm structure), every other shard is replaced under
// its own write lock while readers proceed on the rest of the store. The
// shard split itself runs outside any lock. Returns the number of shards
// actually replaced.
func (s *Sharded) SwapFrom(newGS *saintetiq.Tree) int {
	n := len(s.shards)
	parts := make([]*saintetiq.Tree, n)
	if newGS != nil {
		// Bucket once, split concurrently: each shard's portion is an
		// independent tree built outside any lock. A split cannot fail on
		// vocabulary (the parts are NewLike trees of newGS itself), so any
		// error is an invariant violation.
		buckets := make([][]saintetiq.Node, n)
		for _, leaf := range newGS.Leaves() {
			i := s.shardOf(newGS, leaf)
			buckets[i] = append(buckets[i], leaf)
		}
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

// Snapshot merges every shard into one fresh standalone hierarchy (shard
// order, so the result is deterministic).
func (s *Sharded) Snapshot() *saintetiq.Tree {
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

// Vocab returns shard 0's tree (attribute vocabulary is immutable and
// identical across shards).
func (s *Sharded) Vocab() *saintetiq.Tree {
	s.shards[0].mu.RLock()
	defer s.shards[0].mu.RUnlock()
	return s.shards[0].tree
}

// CandidateShards prunes a descriptor-range store: labels on the partition
// attribute map to their owning shards (deduplicated, ascending). Opaque
// partitions and other attributes return nil — no pruning.
func (s *Sharded) CandidateShards(attr int, labels []int) []int {
	if attr != s.partitionAttr || s.partitionAttr < 0 || labels == nil {
		return nil
	}
	n := len(s.shards)
	seen := make([]bool, n)
	var out []int
	for _, j := range labels {
		if i := j % n; !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// Generation returns shard i's install generation. Unchanged shards keep
// their generation across a reconciliation (SwapFrom skips them), so a
// cache keyed on these counters invalidates per shard delta, never
// globally.
func (s *Sharded) Generation(i int) uint64 {
	return s.shards[i].gen.Load()
}

// NodeCount returns the total number of summary nodes across shards (each
// shard contributes its own root).
func (s *Sharded) NodeCount() int {
	total := 0
	for i := range s.shards {
		s.View(i, func(t *saintetiq.Tree) { total += t.NodeCount() })
	}
	return total
}

// LeafCount returns the total number of grid-cell leaves.
func (s *Sharded) LeafCount() int {
	total := 0
	for i := range s.shards {
		s.View(i, func(t *saintetiq.Tree) { total += t.LeafCount() })
	}
	return total
}

// Weight returns the total tuple weight across shards.
func (s *Sharded) Weight() float64 {
	var total float64
	for i := range s.shards {
		s.View(i, func(t *saintetiq.Tree) { total += t.Root().Count() })
	}
	return total
}

var _ Store = (*Sharded)(nil)
