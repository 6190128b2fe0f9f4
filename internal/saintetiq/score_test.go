package saintetiq

import (
	"math"
	"math/rand"
	"testing"

	"p2psum/internal/bk"
)

// The scorer below is the previous implementation, kept as the oracle: every
// candidate partition is materialised as a []nodeStat (count matrices copied
// by statPlus and mergedStat) and scored from scratch by partitionScore.
// scoreOperators and closestPair must reproduce its float64 results exactly.

// nodeStat is the per-candidate view used during scoring: the real children
// plus the hypothetical placement of the new contribution.
type nodeStat struct {
	count  float64
	counts [][]float64
}

func statOf(n *Node) nodeStat { return nodeStat{count: n.count, counts: n.counts} }

// statPlus returns the node's stat with the contribution folded in
// (without mutating the node).
func (t *Tree) statPlus(n *Node, con *contribution) nodeStat {
	counts := make([][]float64, len(t.attrs))
	for a := range t.attrs {
		counts[a] = append([]float64(nil), n.counts[a]...)
		counts[a][con.labels[a]] += con.count
	}
	return nodeStat{count: n.count + con.count, counts: counts}
}

// statOfContribution views the contribution itself as a singleton class.
func (t *Tree) statOfContribution(con *contribution) nodeStat {
	counts := make([][]float64, len(t.attrs))
	for a := range t.attrs {
		counts[a] = make([]float64, len(t.attrs[a].labels))
		counts[a][con.labels[a]] = con.count
	}
	return nodeStat{count: con.count, counts: counts}
}

// intraScore computes Σ_a Σ_d P(d|z)² weighted by P(z) = z.count / total.
func intraScore(s nodeStat, total float64) float64 {
	if s.count <= 0 || total <= 0 {
		return 0
	}
	pz := s.count / total
	var sum float64
	for a := range s.counts {
		for _, c := range s.counts[a] {
			if c > 0 {
				p := c / s.count
				sum += p * p
			}
		}
	}
	return pz * sum
}

// partitionScore computes CU for a candidate partition given the parent's
// (already updated) totals. The parent term Σ P(d|parent)² is constant
// across candidates at a given node, so comparisons only need the intra-
// class part normalized by K; we keep the full formula for interpretability.
func (t *Tree) partitionScore(parentStat nodeStat, children []nodeStat) float64 {
	k := float64(len(children))
	if k == 0 {
		return 0
	}
	total := parentStat.count
	var intra float64
	for _, c := range children {
		intra += intraScore(c, total)
	}
	var parent float64
	for a := range parentStat.counts {
		for _, c := range parentStat.counts[a] {
			if c > 0 {
				p := c / total
				parent += p * p
			}
		}
	}
	return (intra - parent) / k
}

// oracleChooseOperator is the chooser as it stood before the term-based
// scoring, returning the scores it compared as well (-Inf for an option it
// did not offer).
func (t *Tree) oracleChooseOperator(n *Node, con *contribution, round int) (op operator, best, second int, s operatorScores) {
	parent := statOf(n) // n already includes the contribution
	k := len(n.children)

	// Baseline child stats.
	base := make([]nodeStat, k)
	for i, c := range n.children {
		base[i] = statOf(c)
	}

	// Host candidates: CU with the contribution added to child i.
	best, second = -1, -1
	var bestScore, secondScore float64
	candidate := make([]nodeStat, k)
	copy(candidate, base)
	for i, c := range n.children {
		candidate[i] = t.statPlus(c, con)
		score := t.partitionScore(parent, candidate)
		candidate[i] = base[i]
		if best < 0 || score > bestScore {
			second, secondScore = best, bestScore
			best, bestScore = i, score
		} else if second < 0 || score > secondScore {
			second, secondScore = i, score
		}
	}

	// Create candidate: the contribution as a new singleton child.
	createScore := t.partitionScore(parent, append(append([]nodeStat(nil), base...), t.statOfContribution(con)))

	s = operatorScores{bestScore, secondScore, createScore, math.Inf(-1), math.Inf(-1)}
	op, bestOp := opHost, bestScore
	if createScore > bestOp {
		op, bestOp = opCreate, createScore
	}

	// Merge candidate: fuse best and second, host into the fusion.
	if k >= 3 && second >= 0 {
		merged := t.statPlus(mergedStat(base[best], base[second]), con)
		var rest []nodeStat
		for i := range base {
			if i != best && i != second {
				rest = append(rest, base[i])
			}
		}
		mergeScore := t.partitionScore(parent, append(rest, merged))
		s.merge = mergeScore
		if mergeScore > bestOp {
			op, bestOp = opMerge, mergeScore
		}
	}

	// Split candidate: replace the best child by its children.
	if best >= 0 && !n.children[best].IsLeaf() && round < t.cfg.MaxSplitRounds {
		var split []nodeStat
		for i := range base {
			if i != best {
				split = append(split, base[i])
			}
		}
		for _, gc := range n.children[best].children {
			split = append(split, statOf(gc))
		}
		// Score the split partition with the contribution hosted into its
		// best grandchild (approximated by the singleton-create view, which
		// lower-bounds the split benefit and keeps the evaluation O(K)).
		splitScore := t.partitionScore(parent, append(split, t.statOfContribution(con)))
		s.split = splitScore
		if splitScore > bestOp {
			op = opSplit
		}
	}

	return op, best, second, s
}

// mergedStat is the hypothetical fusion of two child stats.
func mergedStat(a, b nodeStat) *Node {
	// Reuse the contribution plumbing via a throwaway node-like holder.
	n := &Node{count: a.count + b.count, counts: make([][]float64, len(a.counts))}
	for i := range a.counts {
		n.counts[i] = make([]float64, len(a.counts[i]))
		for j := range a.counts[i] {
			n.counts[i][j] = a.counts[i][j] + b.counts[i][j]
		}
	}
	return n
}

// oracleClosestPair is the arity cap's pair search as it stood before the
// term-based scoring, returning the winning score as well.
func (t *Tree) oracleClosestPair(n *Node) (int, int, float64) {
	parent := statOf(n)
	base := make([]nodeStat, len(n.children))
	for i, c := range n.children {
		base[i] = statOf(c)
	}
	bi, bj, bestScore := 0, 1, 0.0
	first := true
	for i := 0; i < len(base); i++ {
		for j := i + 1; j < len(base); j++ {
			var cand []nodeStat
			for k := range base {
				if k != i && k != j {
					cand = append(cand, base[k])
				}
			}
			cand = append(cand, statOf(mergedStat(base[i], base[j])))
			score := t.partitionScore(parent, cand)
			if first || score > bestScore {
				bi, bj, bestScore, first = i, j, score, false
			}
		}
	}
	return bi, bj, bestScore
}

// TestScoringMatchesOracle grows seeded random hierarchies under arity caps
// 0/3/6 with and without split rounds and, before every insertion, scores the
// contribution at every internal node both ways: same operator, same child
// indexes and the same scores, compared with == (no tolerance).
func TestScoringMatchesOracle(t *testing.T) {
	cfgs := []Config{{0, 0}, {0, 2}, {3, 0}, {3, 2}, {6, 0}, {6, 2}}
	scored, paired := 0, 0
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := cfgs[seed%int64(len(cfgs))]
		tr := New(bk.Medical(), cfg)
		if seed%4 == 3 { // start from a merged hierarchy, not an empty one
			tr = mergedTree(t, cfg, 500+seed, 3, 40)
		}
		for _, c := range medicalStore(t, 1000+seed, 20+rng.Intn(60)).Cells() {
			con, err := tr.contributionOf(c, nil)
			if err != nil {
				t.Fatal(err)
			}
			probe := tr.Clone()
			probe.Walk(func(n *Node) bool {
				if len(n.children) == 0 {
					return true
				}
				n.apply(con)
				for _, round := range []int{0, 2} { // split on offer, split budget spent
					op, best, second := probe.chooseOperator(n, con, round)
					s, _, _ := probe.scoreOperators(n, con, round)
					wop, wbest, wsecond, ws := probe.oracleChooseOperator(n, con, round)
					if op != wop || best != wbest || second != wsecond || s != ws {
						t.Fatalf("seed %d node %d round %d: got %v %d %d %+v, oracle %v %d %d %+v",
							seed, n.id, round, op, best, second, s, wop, wbest, wsecond, ws)
					}
					scored++
				}
				if len(n.children) >= 2 {
					i, j, score := probe.closestPair(n)
					wi, wj, wscore := probe.oracleClosestPair(n)
					if i != wi || j != wj || score != wscore {
						t.Fatalf("seed %d node %d: closestPair %d %d %v, oracle %d %d %v",
							seed, n.id, i, j, score, wi, wj, wscore)
					}
					paired++
				}
				return true
			})
			if err := tr.Incorporate(c, PeerID(rng.Intn(5))); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("%d operator scorings and %d pair searches match the oracle", scored, paired)
}

// TestRootScoreMatchesOracle pins Measure's root CU to the old scorer too.
func TestRootScoreMatchesOracle(t *testing.T) {
	for _, tr := range goldenTrees(t) {
		children := make([]nodeStat, len(tr.root.children))
		for i, c := range tr.root.children {
			children[i] = statOf(c)
		}
		if got, want := tr.Measure().RootScore, tr.partitionScore(statOf(tr.root), children); got != want {
			t.Errorf("RootScore = %v, oracle %v", got, want)
		}
	}
}
