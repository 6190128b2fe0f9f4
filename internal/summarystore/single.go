package summarystore

import (
	"sync"
	"sync/atomic"

	"p2psum/internal/saintetiq"
)

// Single is the paper's storage layout: the whole global summary is one
// in-memory hierarchy guarded by one RWMutex. Queries share the read lock;
// a merge or reconciliation swap write-locks everything, stalling every
// reader for its full duration.
type Single struct {
	mu   sync.RWMutex
	tree *saintetiq.Tree
	gen  atomic.Uint64
}

// NewSingle wraps an existing hierarchy. The caller must not keep mutating
// the tree directly once it is handed to the store.
func NewSingle(t *saintetiq.Tree) *Single {
	return &Single{tree: t}
}

// NumShards returns 1.
func (s *Single) NumShards() int { return 1 }

// View runs fn on the tree under the read lock. i must be 0.
func (s *Single) View(i int, fn func(*saintetiq.Tree)) {
	if i != 0 {
		panic("summarystore: Single has exactly one shard")
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	fn(s.tree)
}

// Merge folds src into the tree under the write lock. A non-empty merge
// advances the store's generation (the bump happens inside the lock, after
// the mutation, so a reader that captured the generation before the merge
// always observes the advance).
func (s *Single) Merge(src *saintetiq.Tree) error {
	if src == nil || src.Empty() {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.tree.Merge(src)
	if err == nil {
		s.gen.Add(1)
	}
	return err
}

// SwapFrom replaces the whole tree (the one update operation of §4.2.2).
// It always swaps, so it returns 1; nil resets to an empty hierarchy.
func (s *Single) SwapFrom(newGS *saintetiq.Tree) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if newGS == nil {
		s.tree = s.tree.NewLike()
	} else {
		s.tree = newGS
	}
	s.gen.Add(1)
	return 1
}

// Snapshot returns the live tree; callers must treat it as read-only.
func (s *Single) Snapshot() *saintetiq.Tree {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tree
}

// Vocab returns the live tree (its vocabulary is immutable).
func (s *Single) Vocab() *saintetiq.Tree {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tree
}

// CandidateShards returns nil: one shard, nothing to prune.
func (s *Single) CandidateShards(int, []int) []int { return nil }

// Generation returns the whole-tree install generation. i must be 0.
func (s *Single) Generation(i int) uint64 {
	if i != 0 {
		panic("summarystore: Single has exactly one shard")
	}
	return s.gen.Load()
}

// NodeCount returns the number of summary nodes.
func (s *Single) NodeCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tree.NodeCount()
}

// LeafCount returns the number of grid-cell leaves.
func (s *Single) LeafCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tree.LeafCount()
}

// Weight returns the total tuple weight.
func (s *Single) Weight() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tree.Root().Count()
}

var _ Store = (*Single)(nil)
