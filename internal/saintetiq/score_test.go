package saintetiq

import (
	"math"
	"math/rand"
	"testing"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/data"
	"p2psum/internal/wire"
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

func statOf(n Node) nodeStat { return nodeStat{count: n.Count(), counts: countRows(n)} }

// statPlus returns the stat with the contribution folded in (without
// mutating the node).
func (t *Tree) statPlus(n nodeStat, con *contribution) nodeStat {
	counts := make([][]float64, len(t.attrs))
	for a := range t.attrs {
		counts[a] = append([]float64(nil), n.counts[a]...)
		counts[a][con.cols[a]-t.off[a]] += con.count
	}
	return nodeStat{count: n.count + con.count, counts: counts}
}

// statOfContribution views the contribution itself as a singleton class.
func (t *Tree) statOfContribution(con *contribution) nodeStat {
	counts := make([][]float64, len(t.attrs))
	for a := range t.attrs {
		counts[a] = make([]float64, len(t.attrs[a].labels))
		counts[a][con.cols[a]-t.off[a]] = con.count
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
func (t *Tree) oracleChooseOperator(n Node, con *contribution, round int) (op operator, best, second int, s operatorScores) {
	parent := statOf(n) // n already includes the contribution
	kids := children(n)
	k := len(kids)

	// Baseline child stats.
	base := make([]nodeStat, k)
	for i, c := range kids {
		base[i] = statOf(c)
	}

	// Host candidates: CU with the contribution added to child i.
	best, second = -1, -1
	var bestScore, secondScore float64
	candidate := make([]nodeStat, k)
	copy(candidate, base)
	for i, c := range kids {
		candidate[i] = t.statPlus(statOf(c), con)
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
	if best >= 0 && !kids[best].IsLeaf() && round < t.cfg.MaxSplitRounds {
		var split []nodeStat
		for i := range base {
			if i != best {
				split = append(split, base[i])
			}
		}
		for _, gc := range children(kids[best]) {
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
func mergedStat(a, b nodeStat) nodeStat {
	n := nodeStat{count: a.count + b.count, counts: make([][]float64, len(a.counts))}
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
func (t *Tree) oracleClosestPair(n Node) (int, int, float64) {
	parent := statOf(n)
	kids := children(n)
	base := make([]nodeStat, len(kids))
	for i, c := range kids {
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
			cand = append(cand, mergedStat(base[i], base[j]))
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
			con := tr.newContribution()
			if err := tr.contributionOf(c, nil, con); err != nil {
				t.Fatal(err)
			}
			probe := tr.Clone()
			probe.Walk(func(n Node) bool {
				if n.rec().kids == 0 {
					return true
				}
				probe.apply(n.i, con)
				for _, round := range []int{0, 2} { // split on offer, split budget spent
					op, best, second := probe.chooseOperator(n.i, con, round)
					s, _, _ := probe.scoreOperators(n.i, con, round)
					wop, wbest, wsecond, ws := probe.oracleChooseOperator(n, con, round)
					if op != wop || best != wbest || second != wsecond || s != ws {
						t.Fatalf("seed %d node %d round %d: got %v %d %d %+v, oracle %v %d %d %+v",
							seed, n.ID(), round, op, best, second, s, wop, wbest, wsecond, ws)
					}
					scored++
				}
				if n.rec().kids >= 2 {
					i, j, score := probe.closestPair(n.i)
					wi, wj, wscore := probe.oracleClosestPair(n)
					if i != wi || j != wj || score != wscore {
						t.Fatalf("seed %d node %d: closestPair %d %d %v, oracle %d %d %v",
							seed, n.ID(), i, j, score, wi, wj, wscore)
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
		kids := children(tr.Root())
		stats := make([]nodeStat, len(kids))
		for i, c := range kids {
			stats[i] = statOf(c)
		}
		if got, want := tr.Measure().RootScore, tr.partitionScore(statOf(tr.Root()), stats); got != want {
			t.Errorf("RootScore = %v, oracle %v", got, want)
		}
	}
}

// The class terms and body lengths below are the previous implementations,
// kept as references for the column masks and cached class sums: each pass
// walks the whole row. The masked versions skip only columns that are zero
// and so added nothing, and must reproduce these bit for bit.

// denseClassTerm is classTerm before the column masks and class sums.
func (t *Tree) denseClassTerm(a, b int32, con *contribution, total float64) float64 {
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
	if b == none && con == nil {
		return count / total * t.denseSum(a)
	}
	row := t.row(t.counts, a)
	var other []float64
	if b != none {
		other = t.row(t.counts, b)[:len(row)]
	}
	bump, k := -1, 0 // the next column the contribution adds to
	if con != nil && len(con.cols) > 0 {
		bump = con.cols[0]
	}
	for l, c := range row {
		if other != nil {
			c += other[l]
		}
		if l == bump {
			c += con.count
			if k++; k < len(con.cols) {
				bump = con.cols[k]
			}
		}
		if c > 0 {
			p := c / count
			sum += p * p
		}
	}
	return count / total * sum
}

// denseSum is slot i's class sum from a pass over its whole count row.
func (t *Tree) denseSum(i int32) float64 {
	count := t.nodes[i].count
	var sum float64
	for _, c := range t.row(t.counts, i) {
		if c > 0 {
			p := c / count
			sum += p * p
		}
	}
	return sum
}

// denseMeasureBody is measureBody before the column masks: a pass over
// every column of the row.
func (t *Tree) denseMeasureBody(i int32) int {
	nd := &t.nodes[i]
	leaf := nd.key != ""
	n := 1 + wire.Float64Len(nd.count)
	measures := t.measureRow(i)
	for a, info := range t.attrs {
		counts, grades := t.attrRow(t.counts, i, a), t.attrRow(t.grades, i, a)
		if leaf {
			for j, c := range counts {
				if c > 0 {
					n += wire.UvarintLen(uint64(j)) + wire.Float64Len(grades[j])
					break
				}
			}
		} else {
			nnz := 0
			for j, c := range counts {
				if c != 0 {
					nnz++
					n += wire.UvarintLen(uint64(j)) + wire.Float64Len(c)
				}
			}
			n += wire.UvarintLen(uint64(nnz))
		}
		if m := measures[a]; info.numeric {
			n += wire.Float64Len(m.Sum) + wire.Float64Len(m.SumSq)
			if leaf {
				n += wire.Float64Len(m.Min) + wire.Float64Len(m.Max)
			}
		}
	}
	if !leaf {
		return n
	}
	peers := t.extent(i)
	return n + wire.UvarintLen(uint64(len(peers))) + wire.VarintsLen(peers)
}

// checkCaches holds a tree's caches to its rows: every column with a
// non-zero count or grade has its mask bit, and every cached class sum is
// the sum over its row as it stands, bit for bit.
func checkCaches(t testing.TB, tr *Tree) {
	t.Helper()
	for i := range tr.nodes {
		s := int32(i)
		counts, grades, mask := tr.row(tr.counts, s), tr.row(tr.grades, s), tr.maskRow(s)
		for l := range counts {
			if (counts[l] != 0 || grades[l] != 0) && mask[l>>6]>>(l&63)&1 == 0 {
				t.Fatalf("slot %d column %d holds count %v grade %v without its mask bit", i, l, counts[l], grades[l])
			}
		}
		if sum := tr.nodes[i].sum; sum != unsummed && math.Float64bits(sum) != math.Float64bits(tr.denseSum(s)) {
			t.Fatalf("slot %d caches class sum %v, its row sums to %v", i, sum, tr.denseSum(s))
		}
	}
}

// checkTerms applies con at every node of a clone of tr, as insert does
// before scoring there, and holds every term scoreOperators and closestPair
// evaluate at a node with children to denseClassTerm, compared as bits:
// the parent, every child as it is and hosting con, every grandchild, every
// fusion of two children with and without con, and con alone. It holds
// every slot's body length to denseMeasureBody, then scores each node, and
// checks the class sums scoring cached. It returns the terms compared.
func checkTerms(t *testing.T, tr *Tree, con *contribution) int {
	t.Helper()
	probe, compared := tr.Clone(), 0
	same := func(what string, n Node, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("node %d: %s term %v, dense %v", n.ID(), what, got, want)
		}
		compared++
	}
	probe.Walk(func(n Node) bool {
		if n.rec().kids == 0 {
			return true
		}
		probe.apply(n.i, con)
		total := probe.nodes[n.i].count
		same("parent", n, plainTerm(total, total, probe.classSum(n.i)), probe.denseClassTerm(n.i, none, nil, total))
		same("singleton", n, probe.classTerm(none, none, con, total), probe.denseClassTerm(none, none, con, total))
		kids := children(n)
		for x, c := range kids {
			same("child", n, plainTerm(c.Count(), total, probe.classSum(c.i)), probe.denseClassTerm(c.i, none, nil, total))
			same("host", n, probe.classTerm(c.i, none, con, total), probe.denseClassTerm(c.i, none, con, total))
			for gc := range c.Children() {
				same("grandchild", n, plainTerm(gc.Count(), total, probe.classSum(gc.i)), probe.denseClassTerm(gc.i, none, nil, total))
			}
			for _, d := range kids[x+1:] {
				same("fusion", n, probe.classTerm(c.i, d.i, nil, total), probe.denseClassTerm(c.i, d.i, nil, total))
				same("fused host", n, probe.classTerm(c.i, d.i, con, total), probe.denseClassTerm(c.i, d.i, con, total))
			}
		}
		return true
	})
	for i := range probe.nodes {
		if got, want := probe.measureBody(int32(i)), probe.denseMeasureBody(int32(i)); got != want {
			t.Fatalf("slot %d: body measured %d bytes, dense %d", i, got, want)
		}
	}
	probe.Walk(func(n Node) bool {
		if n.rec().kids > 0 {
			probe.scoreOperators(n.i, con, 0)
			probe.closestPair(n.i)
		}
		return true
	})
	checkCaches(t, probe)
	return compared
}

// TestTermsMatchDenseOracle holds the masked class terms, cached class
// sums and body lengths to the dense references on three kinds of tree:
// medical hierarchies; hierarchies DecodeWire accepted from encodings
// AppendWire never writes (explicit zero, negative-zero and infinite counts,
// NaN grades, a childless root with NaN counts); and hierarchies over a BK
// inferred with 40 labels per numeric attribute, whose 92-column rows take
// two mask words. Each contribution is checked on the tree, then
// incorporated, so later ones meet the caches the writer left.
func TestTermsMatchDenseOracle(t *testing.T) {
	wide, wideCells := wideTrees(t)
	if w := wide[0].words(); w < 2 {
		t.Fatalf("inferred BK has %d columns, want more than 64", wide[0].stride())
	}
	medical := medicalStore(t, 5, 60).Cells()
	for _, tc := range []struct {
		name  string
		trees []*Tree
		cells []*cells.Cell
	}{
		{"medical", goldenTrees(t), medical},
		{"decoded", oddTrees(t), medical},
		{"wide", wide, wideCells},
	} {
		compared := 0
		for _, tr := range tc.trees {
			for x, c := range tc.cells[:12] {
				con := tr.newContribution()
				if err := tr.contributionOf(c, nil, con); err != nil {
					t.Fatal(err)
				}
				compared += checkTerms(t, tr, con)
				if err := tr.Incorporate(c, PeerID(x%3)); err != nil {
					t.Fatal(err)
				}
				checkCaches(t, tr)
			}
		}
		t.Logf("%s: %d terms match the dense oracle", tc.name, compared)
	}
}

// oddTrees decodes the golden trees, and a childless root, from encodings
// that write every column of every internal row, zeros included. Before
// encoding, internal rows get explicit negative zeros and one infinite count
// each on zero-count columns, one leaf each an infinite count and every
// third leaf a NaN grade; the root's counts are NaN, infinite, zero and
// negative.
func oddTrees(t testing.TB) []*Tree {
	t.Helper()
	var out []*Tree
	for k, tr := range goldenTrees(t) {
		odd := tr.Clone()
		x, leaves := 0, 0
		odd.Walk(func(n Node) bool {
			x++
			if n.IsLeaf() {
				if leaves%3 == k {
					odd.grades[int(n.i)*odd.stride()+odd.leafCol(n.i, 0)] = math.NaN()
				}
				if leaves == 3*k {
					odd.nodes[n.i].count = math.Inf(1)
				}
				leaves++
				return true
			}
			for l, c := range odd.row(odd.counts, n.i) {
				switch {
				case c == 0 && x == 2*k+2 && l%2 == 0:
					odd.row(odd.counts, n.i)[l] = math.Inf(1)
				case c == 0 && (l+x)%3 == 1:
					odd.row(odd.counts, n.i)[l] = math.Copysign(0, -1)
				}
			}
			return true
		})
		out = append(out, decodeAllColumns(t, odd))
	}
	bare := New(bk.Medical(), DefaultConfig())
	bare.nodes[root].count = math.NaN()
	copy(bare.row(bare.counts, root), []float64{math.NaN(), math.Inf(1), 0, -2, 3})
	return append(out, decodeAllColumns(t, bare))
}

// decodeAllColumns encodes tr in the wire layout, writing every column of
// every internal row where AppendWire writes only the non-zero ones, and
// decodes it.
func decodeAllColumns(t testing.TB, tr *Tree) *Tree {
	t.Helper()
	var e wire.Enc
	e.Varint(int64(tr.cfg.MaxChildren))
	e.Varint(int64(tr.cfg.MaxSplitRounds))
	e.Uvarint(uint64(len(tr.attrs)))
	for _, a := range tr.attrs {
		e.String(a.name)
		e.Strings(a.labels)
		e.Bool(a.numeric)
	}
	e.Uvarint(uint64(tr.NodeCount()))
	next := 0
	var write func(n int32, parent int)
	write = func(n int32, parent int) {
		idx := next
		next++
		leaf := tr.nodes[n].key != ""
		e.Varint(int64(parent))
		e.Bool(leaf)
		e.Float64(tr.nodes[n].count)
		for a, info := range tr.attrs {
			m := tr.measureRow(n)[a]
			if leaf {
				l := tr.leafCol(n, a)
				e.Uvarint(uint64(l - tr.off[a]))
				e.Float64(tr.row(tr.grades, n)[l])
				if info.numeric {
					e.Float64(m.Min)
					e.Float64(m.Max)
				}
			} else {
				counts := tr.attrRow(tr.counts, n, a)
				e.Uvarint(uint64(len(counts)))
				for j, c := range counts {
					e.Uvarint(uint64(j))
					e.Float64(c)
				}
			}
			if info.numeric {
				e.Float64(m.Sum)
				e.Float64(m.SumSq)
			}
		}
		if leaf {
			e.Uvarint(uint64(tr.nodes[n].peerLen))
			for _, p := range tr.extent(n) {
				e.Varint(int64(p))
			}
		}
		for c := tr.nodes[n].first; c != none; c = tr.nodes[c].next {
			write(c, idx)
		}
	}
	write(root, -1)
	out, err := DecodeWire(wire.NewDec(e.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

// wideTrees returns hierarchies over a BK inferred from 400 generated
// patients with 40 labels per numeric attribute: a local summary, a merge of
// four, and a tight-arity one. It also returns the cells of all 400 rows.
func wideTrees(t testing.TB) ([]*Tree, []*cells.Cell) {
	t.Helper()
	rel := data.NewPatientGenerator(11, nil).Generate("wide", 400)
	b, err := bk.Infer(rel, 40)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cells.NewMapper(b, rel.Schema())
	if err != nil {
		t.Fatal(err)
	}
	all := cells.NewStore(m)
	all.AddRelation(rel)
	part := func(i int) *cells.Store {
		s := cells.NewStore(m)
		for _, rec := range rel.Records()[100*i : 100*(i+1)] {
			s.AddRecord(rec)
		}
		return s
	}
	var locals []*Tree
	merged, tight := New(b, DefaultConfig()), New(b, Config{MaxChildren: 3})
	for i := 0; i < 4; i++ {
		l := New(b, DefaultConfig())
		if err := l.IncorporateStore(part(i), PeerID(i)); err != nil {
			t.Fatal(err)
		}
		if err := merged.Merge(l); err != nil {
			t.Fatal(err)
		}
		locals = append(locals, l)
	}
	if err := tight.IncorporateStore(part(1), 7); err != nil {
		t.Fatal(err)
	}
	return []*Tree{locals[0], merged, tight}, all.Cells()
}
