package saintetiq

import (
	"math"
	"math/bits"
)

// Operator selection (Cobweb, following Fisher 1987 as §3.2.2 prescribes):
// when a new cell reaches an internal node, the four restructuring options
// are scored with a category-utility partition score generalized to weighted
// fuzzy descriptor distributions, and the best one is applied.
//
//	CU({z_1..z_K}) = (1/K) Σ_k P(z_k) Σ_a Σ_d [ P(d|z_k)² − P(d|parent)² ]
//
// where P(d|z) is the weighted frequency of descriptor d among the cells
// below z. Higher CU means the partition predicts descriptors better than
// the parent alone.

type operator int

const (
	opHost operator = iota
	opCreate
	opMerge
	opSplit
)

// unsummed marks a class sum as unknown. A sum of squares is never negative.
const unsummed = -1.0

// classSum returns Σ_a Σ_d P(d|i)² for the class of slot i as it stands,
// the sum plainTerm weighs: the slot's cached sum, or else the sum over the
// row's marked columns, ascending, without caching it. Readers share a tree
// and may score it (Measure), so only the writer fills the cache
// (cachedSum); every write to the row or the count clears it.
func (t *Tree) classSum(i int32) float64 {
	if s := t.nodes[i].sum; s != unsummed {
		return s
	}
	count, row := t.nodes[i].count, t.row(t.counts, i)
	var sum float64
	for w, set := range t.maskRow(i) {
		for ; set != 0; set &= set - 1 {
			if c := row[w<<6|bits.TrailingZeros64(set)]; c > 0 {
				p := c / count
				sum += p * p
			}
		}
	}
	return sum
}

// cachedSum is classSum for the writer, which keeps what it computes.
func (t *Tree) cachedSum(i int32) float64 {
	s := t.classSum(i)
	t.nodes[i].sum = s
	return s
}

// plainTerm is the class term P(z) Σ_a Σ_d P(d|z)² of an existing class of
// the given count and class sum, with P(z) = count / total.
func plainTerm(count, total, sum float64) float64 {
	if count <= 0 || total <= 0 {
		return 0
	}
	return count / total * sum
}

// classTerm is one hypothetical class's share of the intra-class sum,
// P(z) Σ_a Σ_d P(d|z)², for the class made of slot a, plus slot b when not
// none (a fusion), plus the contribution when non-nil (a hosting; an a of
// none then leaves the contribution as a singleton class). The counts are
// added up on the fly, visiting in ascending order only the columns marked
// in a's or b's mask or written by the contribution: every other column is
// zero and would add nothing, so the sum is the one a pass over the whole
// row makes, bit for bit, and scoring copies nothing.
func (t *Tree) classTerm(a, b int32, con *contribution, total float64) float64 {
	var count float64
	if a != none {
		count = t.nodes[a].count
	}
	if b != none {
		count += t.nodes[b].count
	}
	if con != nil {
		count += con.count
	}
	if count <= 0 || total <= 0 {
		return 0
	}
	var sum float64
	if a == none {
		for range con.cols {
			p := con.count / count
			sum += p * p
		}
		return count / total * sum
	}
	row, mask := t.row(t.counts, a), t.maskRow(a)
	var other []float64
	var otherMask []uint64
	if b != none {
		other, otherMask = t.row(t.counts, b)[:len(row)], t.maskRow(b)[:len(mask)]
	}
	k := 0 // the next contribution column
	for w, set := range mask {
		if otherMask != nil {
			set |= otherMask[w]
		}
		var bumps uint64 // the contribution's columns in word w
		for ; con != nil && k < len(con.cols) && int(con.cols[k])>>6 == w; k++ {
			bumps |= 1 << (con.cols[k] & 63)
		}
		for set |= bumps; set != 0; set &= set - 1 {
			j := bits.TrailingZeros64(set)
			l := w<<6 | j
			c := row[l]
			if other != nil {
				c += other[l]
			}
			if bumps>>j&1 != 0 {
				c += con.count
			}
			if c > 0 {
				p := c / count
				sum += p * p
			}
		}
	}
	return count / total * sum
}

// classTerms appends the term of every child of slot n to terms and the
// child's slot to kids, and returns them with the parent term
// Σ_a Σ_d P(d|n)² (n is its own class with P = 1). Scoring is the writer's,
// so the class sums it computes are cached.
func (t *Tree) classTerms(n int32, terms []float64, kids []int32) ([]float64, []int32, float64) {
	total := t.nodes[n].count
	for c := t.nodes[n].first; c != none; c = t.nodes[c].next {
		terms = append(terms, plainTerm(t.nodes[c].count, total, t.cachedSum(c)))
		kids = append(kids, c)
	}
	return terms, kids, plainTerm(total, total, t.cachedSum(n))
}

// sumExcept adds the terms in child order, leaving out indexes i and j
// (-1 leaves nothing out). Candidate partitions are always summed in this
// order, whatever was substituted, so a score depends on the partition alone.
func sumExcept(terms []float64, i, j int) float64 {
	var sum float64
	for x, v := range terms {
		if x != i && x != j {
			sum += v
		}
	}
	return sum
}

// operatorScores holds the CU of each restructuring option at one node:
//
//	CU = (Σ class terms − parent term) / K
//
// An option that is not on offer scores -Inf.
type operatorScores struct {
	host, runnerUp, create, merge, split float64
}

// scoreOperators scores host/create/merge/split for the contribution at slot
// n (whose aggregates already include it) and returns the indexes of the two
// best hosts. Every child's term comes from its cached class sum; each of
// the K host candidates, create, merge and split substitutes one or two
// terms that visit only the columns their classes hold, which makes a
// placement O(K·D + K²) for children of D descriptors, without a single
// allocation at usual arities.
// Split is only offered for internal best children and while the
// per-placement split budget lasts.
func (t *Tree) scoreOperators(n int32, con *contribution, round int) (s operatorScores, best, second int) {
	var buf [16]float64
	var kbuf [16]int32
	terms, kids, parent := t.classTerms(n, buf[:0], kbuf[:0])
	total, k := t.nodes[n].count, float64(len(terms))

	best, second = -1, -1
	for i, c := range kids {
		plain := terms[i]
		terms[i] = t.classTerm(c, none, con, total)
		score := (sumExcept(terms, -1, -1) - parent) / k
		terms[i] = plain
		if best < 0 || score > s.host {
			second, s.runnerUp = best, s.host
			best, s.host = i, score
		} else if second < 0 || score > s.runnerUp {
			second, s.runnerUp = i, score
		}
	}

	// Create: the contribution as a new singleton child.
	single := t.classTerm(none, none, con, total)
	s.create = (sumExcept(terms, -1, -1) + single - parent) / (k + 1)

	// Merge: fuse best and second, host into the fusion.
	s.merge, s.split = math.Inf(-1), math.Inf(-1)
	if len(terms) >= 3 && second >= 0 {
		fused := t.classTerm(kids[best], kids[second], con, total)
		s.merge = (sumExcept(terms, best, second) + fused - parent) / (k - 1)
	}

	// Split: replace the best child by its children, the contribution hosted
	// into its best grandchild (approximated by the singleton-create view,
	// which lower-bounds the split benefit and keeps the evaluation O(K)).
	if best >= 0 && !t.nodes[kids[best]].leaf && round < t.cfg.MaxSplitRounds {
		intra, grand := sumExcept(terms, best, -1), 0
		for gc := t.nodes[kids[best]].first; gc != none; gc = t.nodes[gc].next {
			intra += plainTerm(t.nodes[gc].count, total, t.cachedSum(gc))
			grand++
		}
		s.split = (intra + single - parent) / (k + float64(grand))
	}
	return s, best, second
}

// chooseOperator returns the best-scoring operator for the contribution at
// slot n plus the indexes of the children involved (best, second). Ties
// break deterministically in the order host, create, merge, split.
func (t *Tree) chooseOperator(n int32, con *contribution, round int) (op operator, best, second int) {
	s, best, second := t.scoreOperators(n, con, round)
	top := s.host
	if s.create > top {
		op, top = opCreate, s.create
	}
	if s.merge > top {
		op, top = opMerge, s.merge
	}
	if s.split > top {
		op = opSplit
	}
	return op, best, second
}

// closestPair returns the pair of children of slot n whose fusion maximizes
// the partition score (used by the arity cap), and that score.
func (t *Tree) closestPair(n int32) (bi, bj int, bestScore float64) {
	var buf [16]float64
	var kbuf [16]int32
	terms, kids, parent := t.classTerms(n, buf[:0], kbuf[:0])
	bi, bj = 0, 1
	first := true
	for i := range terms {
		for j := i + 1; j < len(terms); j++ {
			fused := t.classTerm(kids[i], kids[j], nil, t.nodes[n].count)
			score := (sumExcept(terms, i, j) + fused - parent) / float64(len(terms)-1)
			if first || score > bestScore {
				bi, bj, bestScore, first = i, j, score, false
			}
		}
	}
	return bi, bj, bestScore
}
