package query

import (
	"slices"

	"p2psum/internal/saintetiq"
	"p2psum/internal/summarystore"
)

// Store-level querying: the §5.2 services evaluated against a
// summarystore.Store instead of a bare hierarchy. The proposition compiles
// once (it is vocabulary-level), the store prunes the walk to the
// candidate shards (clauses on a descriptor-range partition attribute name
// their owning shards directly), each candidate is explored in shard order
// under its own read lock on the caller's goroutine, and the per-shard
// outcomes combine: selections concatenate, graded results re-rank,
// approximate-answer classes with the same interpretation coalesce. The
// approximate answer stays in label-index space (classes.go): every shard
// folds its selection into the query's one class accumulator under its
// lock, a class first met in an earlier shard through a per-shard partial
// that endShard adds to the class totals when the shard is done. Strings
// — label names, the attribute-ordered label sets, the class keys that
// order the classes — are built once per class, after every lock is
// released. Because every leaf cell lives in exactly one shard and pruned
// shards cannot own matching leaves, the structure-invariant outputs (peer
// localization, selection weight, the union of answered descriptors) are
// identical to evaluating the same data in a single tree; only the
// intermediate abstraction levels (which summaries represent the matching
// cells) depend on the layout.

// candidateShards intersects the store's per-clause pruning hints: a
// conjunctive query only needs the shards every clause admits. With a
// descriptor-range partition, a clause on the partition attribute narrows
// the walk to the clause labels' shards; anything else keeps all
// shards.
func candidateShards(st *summarystore.Store, c *compiled) []int {
	out := make([]int, st.NumShards())
	for i := range out {
		out[i] = i
	}
	for i, a := range c.attrs {
		shards := st.CandidateShards(a, c.labels[i])
		if shards == nil {
			continue // no pruning on this attribute
		}
		kept := out[:0]
		for _, s := range out {
			if _, ok := slices.BinarySearch(shards, s); ok {
				kept = append(kept, s)
			}
		}
		out = kept
	}
	return out
}

// Candidates compiles q against the store's vocabulary and returns the
// shards its evaluation can touch (ascending, deduplicated) — the same
// pruning AnswerStore applies internally. A serving-edge cache uses it to
// know which shard generations gate a cached result: an install that
// leaves every candidate shard untouched cannot change the answer. The
// error is the same vocabulary validation AnswerStore would report, so
// callers get query validation for free before paying for an evaluation.
func Candidates(st *summarystore.Store, q Query) ([]int, error) {
	c, err := compile(st.Vocab(), q)
	if err != nil {
		return nil, err
	}
	return candidateShards(st, c), nil
}

// StoreAnswer is the merged outcome of one store query: peer
// localization (§5.2.1) plus approximate answering (§5.2.2) evaluated
// shard by shard. It carries no live tree nodes, so it stays valid after
// concurrent writers move the store on.
type StoreAnswer struct {
	// Answer is the approximate answer with same-interpretation classes
	// merged across shards.
	Answer *Answer
	// Peers is PQ: the union of the shards' peer extents, sorted.
	Peers []saintetiq.PeerID
	// Weight is the total tuple weight of the selected summaries.
	Weight float64
	// Visited is the total number of summary nodes explored.
	Visited int
}

// AnswerStore evaluates the query against the candidate shards one after
// another on the calling goroutine, folding each shard's selection into
// one class accumulator under that shard's read lock. Classes sharing an
// interpretation are coalesced: weights add, answered descriptors and peer
// extents union, measures merge — per-shard partials folded in shard
// order.
func AnswerStore(st *summarystore.Store, q Query) (*StoreAnswer, error) {
	vocab := st.Vocab()
	// Compile the proposition and resolve the select attributes once; both
	// are vocabulary-level and shared by every shard.
	c, err := compile(vocab, q)
	if err != nil {
		return nil, err
	}
	p, err := newPlan(vocab, q, c)
	if err != nil {
		return nil, err
	}
	acc := p.accumulator()
	view := func(t *saintetiq.Tree) { acc.visited += c.walk(t, acc.add) }
	for _, s := range candidateShards(st, c) {
		st.View(s, view)
		acc.endShard()
	}
	ans, peers := acc.answer()
	sa := &StoreAnswer{Answer: ans, Peers: peers, Weight: acc.weight, Visited: acc.visited}
	acc.release()
	return sa, nil
}
