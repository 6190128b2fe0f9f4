package saintetiq

import "math"

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

// String names the operator (useful in traces and tests).
func (o operator) String() string {
	switch o {
	case opHost:
		return "host"
	case opCreate:
		return "create"
	case opMerge:
		return "merge"
	case opSplit:
		return "split"
	default:
		return "?"
	}
}

// classTerm is one class's share of the intra-class sum, P(z) Σ_a Σ_d P(d|z)²
// with P(z) = z.count / total, for the class made of node a, plus node b when
// non-nil (a hypothetical fusion), plus the contribution when non-nil (a
// hypothetical hosting; a nil a then leaves the contribution as a singleton
// class). The counts are added up on the fly, so scoring copies nothing.
func classTerm(a, b *Node, con *contribution, total float64) float64 {
	var count float64
	if a != nil {
		count = a.count
	}
	if b != nil {
		count += b.count
	}
	if con != nil {
		count += con.count
	}
	if count <= 0 || total <= 0 {
		return 0
	}
	var sum float64
	if a == nil {
		for range con.labels {
			p := con.count / count
			sum += p * p
		}
		return count / total * sum
	}
	for at, row := range a.counts {
		bump := -1
		if con != nil {
			bump = con.labels[at]
		}
		for l, c := range row {
			if b != nil {
				c += b.counts[at][l]
			}
			if l == bump {
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

// classTerms appends the term of every child of n to terms and returns them
// with the parent term Σ_a Σ_d P(d|n)² (n is its own class with P = 1).
func classTerms(n *Node, terms []float64) ([]float64, float64) {
	for _, c := range n.children {
		terms = append(terms, classTerm(c, nil, nil, n.count))
	}
	return terms, classTerm(n, nil, nil, n.count)
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

// scoreOperators scores host/create/merge/split for the contribution at node
// n (whose aggregates already include it) and returns the indexes of the two
// best hosts. Every child's term is computed once; each of the K host
// candidates, create, merge and split substitutes one or two terms, which
// makes a placement O(K·L + K²) without a single allocation at usual arities.
// Split is only offered for internal best children and while the
// per-placement split budget lasts.
func (t *Tree) scoreOperators(n *Node, con *contribution, round int) (s operatorScores, best, second int) {
	var buf [16]float64
	terms, parent := classTerms(n, buf[:0])
	total, k := n.count, float64(len(terms))

	best, second = -1, -1
	for i, c := range n.children {
		plain := terms[i]
		terms[i] = classTerm(c, nil, con, total)
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
	single := classTerm(nil, nil, con, total)
	s.create = (sumExcept(terms, -1, -1) + single - parent) / (k + 1)

	// Merge: fuse best and second, host into the fusion.
	s.merge, s.split = math.Inf(-1), math.Inf(-1)
	if len(terms) >= 3 && second >= 0 {
		fused := classTerm(n.children[best], n.children[second], con, total)
		s.merge = (sumExcept(terms, best, second) + fused - parent) / (k - 1)
	}

	// Split: replace the best child by its children, the contribution hosted
	// into its best grandchild (approximated by the singleton-create view,
	// which lower-bounds the split benefit and keeps the evaluation O(K)).
	if best >= 0 && !n.children[best].IsLeaf() && round < t.cfg.MaxSplitRounds {
		grand := n.children[best].children
		intra := sumExcept(terms, best, -1)
		for _, gc := range grand {
			intra += classTerm(gc, nil, nil, total)
		}
		s.split = (intra + single - parent) / (k + float64(len(grand)))
	}
	return s, best, second
}

// chooseOperator returns the best-scoring operator for the contribution at
// node n plus the indexes of the children involved (best, second). Ties
// break deterministically in the order host, create, merge, split.
func (t *Tree) chooseOperator(n *Node, con *contribution, round int) (op operator, best, second int) {
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

// closestPair returns the pair of children of n whose fusion maximizes the
// partition score (used by the arity cap), and that score.
func (t *Tree) closestPair(n *Node) (bi, bj int, bestScore float64) {
	var buf [16]float64
	terms, parent := classTerms(n, buf[:0])
	bi, bj = 0, 1
	first := true
	for i := range terms {
		for j := i + 1; j < len(terms); j++ {
			fused := classTerm(n.children[i], n.children[j], nil, n.count)
			score := (sumExcept(terms, i, j) + fused - parent) / float64(len(terms)-1)
			if first || score > bestScore {
				bi, bj, bestScore, first = i, j, score, false
			}
		}
	}
	return bi, bj, bestScore
}
