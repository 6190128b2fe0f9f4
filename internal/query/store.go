package query

import (
	"p2psum/internal/saintetiq"
	"p2psum/internal/summarystore"
)

// Store-level querying: the §5.2 services evaluated against a
// summarystore.Store instead of a bare hierarchy. The proposition compiles
// once (it is vocabulary-level), the store prunes the walk to the
// candidate shards (clauses on a descriptor-range partition attribute name
// their owning shards directly), each candidate is explored in shard order
// under its own read lock on the caller's goroutine, and the per-shard
// outcomes are merged: selections concatenate, graded results re-rank,
// approximate-answer classes with the same interpretation coalesce. A
// shard's answer stays in label-index space (classes.go): the shard folds
// its selection into a class accumulator under its lock, the accumulators
// merge in shard order, and strings — label names, the attribute-ordered
// label sets, the class keys that order the classes — are built once per
// merged class, after every lock is released. Because every leaf cell
// lives in exactly one shard and pruned shards cannot own matching leaves,
// the structure-invariant outputs (peer localization, selection weight,
// the union of answered descriptors) are identical to evaluating the same
// data in a single tree; only the intermediate abstraction levels (which
// summaries represent the matching cells) depend on the layout.

// candidateShards intersects the store's per-clause pruning hints: a
// conjunctive query only needs the shards every clause admits. With a
// descriptor-range partition, a clause on the partition attribute narrows
// the walk to the clause labels' shards; anything else keeps all
// shards.
func candidateShards(st *summarystore.Store, c *compiled) []int {
	n := st.NumShards()
	keep := make([]bool, n)
	for i := range keep {
		keep[i] = true
	}
	for i, a := range c.attrs {
		shards := st.CandidateShards(a, c.labels[i])
		if shards == nil {
			continue // no pruning on this attribute
		}
		mask := make([]bool, n)
		for _, s := range shards {
			mask[s] = true
		}
		for j := range keep {
			keep[j] = keep[j] && mask[j]
		}
	}
	out := make([]int, 0, n)
	for i, k := range keep {
		if k {
			out = append(out, i)
		}
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
// another on the calling goroutine — each shard's selection folds into its
// own class accumulator under that shard's read lock — and merges the
// accumulators in shard order. Classes sharing an interpretation are
// coalesced: weights add, answered descriptors and peer extents union,
// measures merge.
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
	var merged *accumulator
	for _, s := range candidateShards(st, c) {
		acc := p.accumulator()
		st.View(s, func(t *saintetiq.Tree) {
			acc.visited = c.walk(t, acc.add)
		})
		if merged == nil {
			merged = acc // merging into an empty accumulator would copy it
			continue
		}
		merged.merge(acc)
	}
	if merged == nil {
		merged = p.accumulator()
	}
	ans, peers := merged.answer()
	return &StoreAnswer{Answer: ans, Peers: peers, Weight: merged.weight, Visited: merged.visited}, nil
}
