package query

import (
	"sort"

	"p2psum/internal/par"
	"p2psum/internal/saintetiq"
	"p2psum/internal/summarystore"
)

// Store-level querying: the §5.2 services evaluated against a
// summarystore.Store instead of a bare hierarchy. The proposition compiles
// once (it is vocabulary-level), the store prunes the fan-out to the
// candidate shards (clauses on a descriptor-range partition attribute name
// their owning shards directly), each candidate is explored under its own
// read lock — the per-shard work fans out across internal/par — and the
// per-shard outcomes are merged: selections concatenate, graded results
// re-rank, approximate-answer classes with the same interpretation
// coalesce. A shard's answer stays in label-index space (classes.go): the
// shard folds its selection into a class accumulator under its lock, the
// accumulators merge in shard order, and strings — label names, the
// attribute-ordered label sets, the class keys that order the classes —
// are built once per merged class, after every lock is released. Because
// every leaf cell lives in exactly one shard and pruned shards cannot own
// matching leaves, the structure-invariant outputs (peer localization,
// selection weight, the union of answered descriptors) are identical to
// evaluating the same data in a single tree; only the intermediate
// abstraction levels (which summaries represent the matching cells) depend
// on the layout.

// candidateShards intersects the store's per-clause pruning hints: a
// conjunctive query only needs the shards every clause admits. With a
// descriptor-range partition, a clause on the partition attribute narrows
// the fan-out to the clause labels' shards; anything else keeps all
// shards.
func candidateShards(st summarystore.Store, c *compiled) []int {
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
func Candidates(st summarystore.Store, q Query) ([]int, error) {
	c, err := compile(st.Vocab(), q)
	if err != nil {
		return nil, err
	}
	return candidateShards(st, c), nil
}

// SelectStore walks the store's candidate shards and returns the union of
// the per-shard ZQ selections, in shard order. The returned nodes belong
// to the live shard trees: do not retain them while writers (merges,
// reconciliation swaps) may run concurrently — use AnswerStore or
// TopKStore, which finish their node reads under the shard locks, when the
// store is shared with writers.
func SelectStore(st summarystore.Store, q Query) (*Selection, error) {
	// The compiled proposition is vocabulary-level: one compilation serves
	// every shard.
	c, err := compile(st.Vocab(), q)
	if err != nil {
		return nil, err
	}
	cands := candidateShards(st, c)
	sels := make([]*Selection, len(cands))
	err = par.ForEach(0, len(cands), func(k int) error {
		st.View(cands[k], func(t *saintetiq.Tree) {
			sels[k] = c.selectTree(t)
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged := &Selection{}
	for _, s := range sels {
		merged.Summaries = append(merged.Summaries, s.Summaries...)
		merged.Visited += s.Visited
	}
	return merged, nil
}

// StoreAnswer is the merged outcome of one fanned-out store query: peer
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

// AnswerStore evaluates the query against every shard concurrently — each
// shard's selection folds into its own class accumulator under that
// shard's read lock — and merges the accumulators in shard order. Classes
// sharing an interpretation are coalesced: weights add, answered
// descriptors and peer extents union, measures merge.
func AnswerStore(st summarystore.Store, q Query) (*StoreAnswer, error) {
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
	cands := candidateShards(st, c)
	accs := make([]*accumulator, len(cands))
	err = par.ForEach(0, len(cands), func(k int) error {
		acc := p.accumulator()
		st.View(cands[k], func(t *saintetiq.Tree) {
			acc.visited = c.walk(t, acc.add)
		})
		accs[k] = acc
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged := p.accumulator()
	for _, acc := range accs {
		merged.merge(acc)
	}
	ans, peers := merged.answer()
	return &StoreAnswer{Answer: ans, Peers: peers, Weight: merged.weight, Visited: merged.visited}, nil
}

// TopKStore evaluates the query on every shard, grades each shard's
// selection under its read lock, and merges the graded results into one
// ranking (degree, then weight, then shard order). k <= 0 returns all.
func TopKStore(st summarystore.Store, q Query, k int) ([]GradedSummary, error) {
	c, err := compile(st.Vocab(), q)
	if err != nil {
		return nil, err
	}
	cands := candidateShards(st, c)
	lists := make([][]GradedSummary, len(cands))
	err = par.ForEach(0, len(cands), func(k int) error {
		st.View(cands[k], func(t *saintetiq.Tree) {
			lists[k] = c.grade(c.selectTree(t))
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	var merged []GradedSummary
	for _, l := range lists {
		merged = append(merged, l...)
	}
	sort.SliceStable(merged, func(i, j int) bool {
		if merged[i].Degree != merged[j].Degree {
			return merged[i].Degree > merged[j].Degree
		}
		return merged[i].Weight > merged[j].Weight
	})
	if k > 0 && k < len(merged) {
		merged = merged[:k]
	}
	return merged, nil
}
