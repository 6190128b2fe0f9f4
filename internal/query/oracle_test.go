package query_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/data"
	"p2psum/internal/query"
	"p2psum/internal/routing"
	"p2psum/internal/saintetiq"
	"p2psum/internal/summarystore"
	"p2psum/internal/wire"
)

// The reference below is the map-based §5.2 evaluation the label-index
// accumulator replaced, kept verbatim in spirit: valuation over
// LabelIndexes, one interpretation map and class key per selected summary,
// label and peer unions through maps, and a per-shard merge keyed on the
// class key. Its classes are the map-based Class the attribute-ordered rows
// replaced, written by the sorted-key encoder that went with it. The oracle
// tests hold the production path to it byte for byte.

// refClass is the map-based class.
type refClass struct {
	Interpretation map[string][]string
	Answers        map[string][]string
	Weight         float64
	Peers          []saintetiq.PeerID
	Measures       map[string]cells.Measure
}

type refAnswer struct {
	Query   query.Query
	Classes []refClass
}

// refEncode is the DataAnswer wire body of a map-based answer, every map
// written in sorted key order.
func refEncode(a *refAnswer, peers []saintetiq.PeerID, visited int) []byte {
	e := new(wire.Enc)
	e.Uvarint(uint64(len(peers)))
	for _, id := range peers {
		e.Varint(int64(id))
	}
	e.Varint(int64(visited))
	e.Bool(true)
	routing.EncodeFlexQuery(e, a.Query)
	e.Uvarint(uint64(len(a.Classes)))
	labelSets := func(m map[string][]string) {
		keys := sortedKeys(m)
		e.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			e.String(k)
			e.Strings(m[k])
		}
	}
	for _, c := range a.Classes {
		labelSets(c.Interpretation)
		labelSets(c.Answers)
		e.Float64(c.Weight)
		e.Uvarint(uint64(len(c.Peers)))
		for _, p := range c.Peers {
			e.Varint(int64(p))
		}
		keys := sortedKeys(c.Measures)
		e.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			m := c.Measures[k]
			e.String(k)
			e.Float64(m.Weight)
			e.Float64(m.Min)
			e.Float64(m.Max)
			e.Float64(m.Sum)
			e.Float64(m.SumSq)
		}
	}
	return e.Bytes()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// refString is Answer.String over the map-based classes.
func (a *refAnswer) refString() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", a.Query)
	for i, c := range a.Classes {
		fmt.Fprintf(&sb, "class %d ", i+1)
		var parts []string
		for _, cl := range a.Query.Where {
			parts = append(parts, strings.Join(c.Interpretation[cl.Attr], "|"))
		}
		fmt.Fprintf(&sb, "{%s} weight=%.2f:", strings.Join(parts, ", "), c.Weight)
		for _, selAttr := range a.Query.Select {
			fmt.Fprintf(&sb, " %s={%s}", selAttr, strings.Join(c.Answers[selAttr], ","))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

type refCompiled struct {
	attrs  []int
	labels [][]int
}

func refCompile(t *saintetiq.Tree, q query.Query) *refCompiled {
	c := &refCompiled{}
	for _, cl := range q.Where {
		a := t.AttrIndex(cl.Attr)
		var idx []int
		for _, lab := range cl.Labels {
			idx = append(idx, t.LabelIndex(a, lab))
		}
		sort.Ints(idx)
		c.attrs = append(c.attrs, a)
		c.labels = append(c.labels, idx)
	}
	return c
}

func refContains(sorted []int, x int) bool {
	i := sort.SearchInts(sorted, x)
	return i < len(sorted) && sorted[i] == x
}

func (c *refCompiled) valuate(n *saintetiq.Node) query.Valuation {
	result := query.FullSat
	for i, a := range c.attrs {
		intent := n.LabelIndexes(a)
		inter := 0
		for _, j := range intent {
			if refContains(c.labels[i], j) {
				inter++
			}
		}
		switch {
		case inter == 0:
			return query.NotSat
		case inter < len(intent):
			result = query.PartialSat
		}
	}
	return result
}

func (c *refCompiled) selectTree(t *saintetiq.Tree) (zs []*saintetiq.Node, visited int) {
	if t.Empty() {
		return nil, 0
	}
	var walk func(n *saintetiq.Node)
	walk = func(n *saintetiq.Node) {
		visited++
		switch c.valuate(n) {
		case query.FullSat:
			zs = append(zs, n)
		case query.PartialSat:
			if n.IsLeaf() {
				zs = append(zs, n)
				return
			}
			for _, ch := range n.Children() {
				walk(ch)
			}
		}
	}
	walk(t.Root())
	return zs, visited
}

func refUnionPeers(acc, more []saintetiq.PeerID) []saintetiq.PeerID {
	set := make(map[saintetiq.PeerID]struct{}, len(acc)+len(more))
	for _, p := range acc {
		set[p] = struct{}{}
	}
	for _, p := range more {
		set[p] = struct{}{}
	}
	out := make([]saintetiq.PeerID, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func refPeers(zs []*saintetiq.Node) []saintetiq.PeerID {
	var out []saintetiq.PeerID
	for _, z := range zs {
		out = refUnionPeers(out, z.PeerIDs())
	}
	if out == nil {
		out = []saintetiq.PeerID{}
	}
	return out
}

func refClassKey(interp map[string][]string, order []string) string {
	parts := make([]string, 0, len(order))
	for _, attr := range order {
		parts = append(parts, attr+"="+strings.Join(interp[attr], "|"))
	}
	return strings.Join(parts, ";")
}

func refUnionLabels(vocab *saintetiq.Tree, a int, acc []string, more []string) []string {
	present := make(map[string]bool, len(acc)+len(more))
	for _, lab := range acc {
		present[lab] = true
	}
	for _, lab := range more {
		present[lab] = true
	}
	var out []string
	for _, lab := range vocab.AttrLabels(a) {
		if present[lab] {
			out = append(out, lab)
		}
	}
	return out
}

func whereOrder(q query.Query) []string {
	out := make([]string, len(q.Where))
	for i, cl := range q.Where {
		out[i] = cl.Attr
	}
	return out
}

// approximate is the per-tree class aggregation: one interpretation map and
// class key per selected summary.
func (c *refCompiled) approximate(vocab *saintetiq.Tree, q query.Query, zs []*saintetiq.Node) *refAnswer {
	order := whereOrder(q)
	groups := make(map[string]*refClass)
	var keys []string
	for _, z := range zs {
		interp := make(map[string][]string, len(q.Where))
		for i, a := range c.attrs {
			var labs []string
			for _, j := range z.LabelIndexes(a) {
				if refContains(c.labels[i], j) {
					labs = append(labs, vocab.Label(a, j))
				}
			}
			interp[q.Where[i].Attr] = labs
		}
		key := refClassKey(interp, order)
		g, ok := groups[key]
		if !ok {
			g = &refClass{
				Interpretation: interp,
				Answers:        make(map[string][]string),
				Measures:       make(map[string]cells.Measure),
			}
			for _, name := range q.Select {
				g.Measures[name] = cells.NewMeasure()
			}
			groups[key] = g
			keys = append(keys, key)
		}
		g.Weight += z.Count()
		for _, name := range q.Select {
			a := vocab.AttrIndex(name)
			var labs []string
			for _, j := range z.LabelIndexes(a) {
				labs = append(labs, vocab.Label(a, j))
			}
			g.Answers[name] = refUnionLabels(vocab, a, g.Answers[name], labs)
			m := g.Measures[name]
			m.Merge(z.Measure(a))
			g.Measures[name] = m
		}
		g.Peers = refUnionPeers(g.Peers, z.PeerIDs())
	}
	sort.Strings(keys)
	ans := &refAnswer{Query: q}
	for _, k := range keys {
		ans.Classes = append(ans.Classes, *groups[k])
	}
	return ans
}

// refStore is AnswerStore before the accumulator: per-shard answers merged
// through class-key maps, peers and weights summed shard by shard.
func refStore(st summarystore.Store, q query.Query) (*refAnswer, []saintetiq.PeerID, float64, int) {
	vocab := st.Vocab()
	c := refCompile(vocab, q)
	cands, err := query.Candidates(st, q)
	if err != nil {
		panic(err)
	}
	order := whereOrder(q)
	groups := make(map[string]*refClass)
	var keys []string
	merged := &refAnswer{Query: q}
	var peers []saintetiq.PeerID
	var weight float64
	visited := 0
	for _, s := range cands {
		st.View(s, func(t *saintetiq.Tree) {
			zs, v := c.selectTree(t)
			visited += v
			var w float64
			for _, z := range zs {
				w += z.Count()
			}
			weight += w
			peers = refUnionPeers(peers, refPeers(zs))
			for _, cl := range c.approximate(vocab, q, zs).Classes {
				cl := cl
				key := refClassKey(cl.Interpretation, order)
				g, ok := groups[key]
				if !ok {
					groups[key] = &cl
					keys = append(keys, key)
					continue
				}
				g.Weight += cl.Weight
				g.Peers = refUnionPeers(g.Peers, cl.Peers)
				for _, name := range q.Select {
					a := vocab.AttrIndex(name)
					g.Answers[name] = refUnionLabels(vocab, a, g.Answers[name], cl.Answers[name])
					m := g.Measures[name]
					m.Merge(cl.Measures[name])
					g.Measures[name] = m
				}
			}
		})
	}
	sort.Strings(keys)
	for _, k := range keys {
		merged.Classes = append(merged.Classes, *groups[k])
	}
	if peers == nil {
		peers = []saintetiq.PeerID{}
	}
	return merged, peers, weight, visited
}

// refGrade is the graded valuation over LabelIndexes, ranked as TopK ranks.
func (c *refCompiled) refGrade(zs []*saintetiq.Node) []query.GradedSummary {
	out := make([]query.GradedSummary, 0, len(zs))
	for _, z := range zs {
		deg := 1.0
		for i, a := range c.attrs {
			best := 0.0
			for _, j := range z.LabelIndexes(a) {
				if refContains(c.labels[i], j) {
					if g := z.Grade(a, j); g > best {
						best = g
					}
				}
			}
			if best < deg {
				deg = best
			}
		}
		out = append(out, query.GradedSummary{Node: z, Degree: deg, Weight: z.Count()})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Degree != out[j].Degree {
			return out[i].Degree > out[j].Degree
		}
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Node.ID() < out[j].Node.ID()
	})
	return out
}

// refIntents renders, in walk order, every visited node's intent on the
// query attributes as Explain does.
func (c *refCompiled) refIntents(t *saintetiq.Tree) []string {
	var out []string
	if t.Empty() {
		return nil
	}
	var walk func(n *saintetiq.Node)
	walk = func(n *saintetiq.Node) {
		parts := make([]string, 0, len(c.attrs))
		for _, a := range c.attrs {
			var labs []string
			for _, j := range n.LabelIndexes(a) {
				labs = append(labs, t.Label(a, j))
			}
			parts = append(parts, t.AttrName(a)+":"+strings.Join(labs, "|"))
		}
		out = append(out, "{"+strings.Join(parts, ", ")+"}")
		if c.valuate(n) == query.PartialSat && !n.IsLeaf() {
			for _, ch := range n.Children() {
				walk(ch)
			}
		}
	}
	walk(t.Root())
	return out
}

// encodeAnswer is the wire body the gateway serves for an answer.
func encodeAnswer(ans *query.Answer, peers []saintetiq.PeerID, visited int) []byte {
	e := new(wire.Enc)
	routing.EncodeDataAnswer(e, &routing.DataAnswer{Peers: routing.PeersOf(peers), Visited: visited, Answer: ans})
	return e.Bytes()
}

// oracleStores feeds the same seeded eight-peer workload into stores of 1,
// 2, 4 and 8 shards.
func oracleStores(t testing.TB, b *bk.BK) []summarystore.Store {
	t.Helper()
	cfg := saintetiq.DefaultConfig()
	mapper, err := cells.NewMapper(b, data.PatientSchema())
	if err != nil {
		t.Fatal(err)
	}
	var stores []summarystore.Store
	for _, n := range []int{1, 2, 4, 8} {
		stores = append(stores, summarystore.New(b, cfg, n))
	}
	for p := 0; p < 8; p++ {
		cs := cells.NewStore(mapper)
		cs.AddRelation(data.NewPatientGenerator(int64(900+p), nil).Generate("r", 60))
		tr := saintetiq.New(b, cfg)
		if err := tr.IncorporateStore(cs, saintetiq.PeerID(p)); err != nil {
			t.Fatal(err)
		}
		for _, st := range stores {
			if err := st.Merge(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	return stores
}

// randomQuery draws a valid query: one to three clauses whose attributes
// may repeat, label subsets that may repeat a label, and zero to three
// SELECT names that may repeat.
func randomQuery(rng *rand.Rand, b *bk.BK) query.Query {
	attrs := b.Attrs()
	var q query.Query
	for i := rng.Intn(3) + 1; i > 0; i-- {
		a := attrs[rng.Intn(len(attrs))]
		labels := a.Labels()
		var pick []string
		for _, lab := range labels {
			if rng.Intn(2) == 0 {
				pick = append(pick, lab)
			}
		}
		if len(pick) == 0 || rng.Intn(8) == 0 {
			pick = append(pick, labels[rng.Intn(len(labels))])
		}
		q.Where = append(q.Where, query.Clause{Attr: a.Name, Labels: pick})
	}
	for i := rng.Intn(4); i > 0; i-- {
		q.Select = append(q.Select, attrs[rng.Intn(len(attrs))].Name)
	}
	return q
}

// oracleQueries is the seeded battery plus the edge cases the accumulator
// must reproduce: a WHERE attribute repeated with different label sets (the
// class keys on the last clause, as the interpretation map did), a SELECT
// name repeated (one measure, merged once per occurrence) and an empty
// SELECT (empty, non-nil answers and measures).
func oracleQueries(b *bk.BK, n int) []query.Query {
	qs := []query.Query{
		{Select: []string{"age"}, Where: []query.Clause{
			{Attr: "bmi", Labels: []string{"underweight", "normal", "overweight"}},
			{Attr: "bmi", Labels: []string{"normal"}},
		}},
		{Select: []string{"age", "bmi", "age"}, Where: []query.Clause{
			{Attr: "sex", Labels: []string{"female", "male"}},
		}},
		{Select: []string{"bmi", "bmi"}, Where: []query.Clause{
			{Attr: "age", Labels: []string{"young"}},
			{Attr: "disease", Labels: []string{"anorexia", "malaria"}},
			{Attr: "age", Labels: []string{"young", "adult"}},
		}},
		{Where: []query.Clause{
			{Attr: "sex", Labels: []string{"female"}},
			{Attr: "bmi", Labels: []string{"normal", "overweight"}},
		}},
	}
	rng := rand.New(rand.NewSource(42))
	for len(qs) < n {
		qs = append(qs, randomQuery(rng, b))
	}
	return qs
}

// checkAnswer holds a production answer to the reference: the same wire
// bytes, String rendering and JSON; a decode of those bytes that re-encodes to
// them; and class rows that are exact-capacity windows with strictly
// ascending attributes.
func checkAnswer(t *testing.T, where string, ans *query.Answer, peers []saintetiq.PeerID, visited int, ref *refAnswer, refPeers []saintetiq.PeerID) {
	t.Helper()
	got := encodeAnswer(ans, peers, visited)
	if want := refEncode(ref, refPeers, visited); !bytes.Equal(got, want) {
		t.Fatalf("%s: answer bytes differ\n got %s\nwant %s", where, ans, ref.refString())
	}
	if ans.String() != ref.refString() {
		t.Fatalf("%s: String differs\n got %s\nwant %s", where, ans, ref.refString())
	}
	gj, gerr := json.Marshal(ans)
	rj, rerr := json.Marshal(ref)
	if !bytes.Equal(gj, rj) || (gerr == nil) != (rerr == nil) {
		t.Fatalf("%s: JSON differs\n got %s (%v)\nwant %s (%v)", where, gj, gerr, rj, rerr)
	}
	back, err := routing.DecodeDataAnswer(wire.NewDecShared(got))
	if err != nil {
		t.Fatalf("%s: decode: %v", where, err)
	}
	e := new(wire.Enc)
	routing.EncodeDataAnswer(e, back)
	if !bytes.Equal(e.Bytes(), got) {
		t.Fatalf("%s: decode and re-encode changed the bytes", where)
	}
	for i, c := range ans.Classes {
		if c.Peers == nil || cap(c.Peers) != len(c.Peers) {
			t.Fatalf("%s: class %d peers len %d cap %d (nil=%v), want exact non-nil", where, i, len(c.Peers), cap(c.Peers), c.Peers == nil)
		}
		attrs := func(row string, n, c int, attr func(int) string) {
			if c != n {
				t.Fatalf("%s: class %d %s len %d cap %d, want exact", where, i, row, n, c)
			}
			for k := 1; k < n; k++ {
				if attr(k-1) >= attr(k) {
					t.Fatalf("%s: class %d %s not strictly ascending at %d", where, i, row, k)
				}
			}
		}
		if c.Interpretation == nil || c.Answers == nil || c.Measures == nil {
			t.Fatalf("%s: class %d has a nil row", where, i)
		}
		attrs("interpretation", len(c.Interpretation), cap(c.Interpretation), func(k int) string { return c.Interpretation[k].Attr })
		attrs("answers", len(c.Answers), cap(c.Answers), func(k int) string { return c.Answers[k].Attr })
		attrs("measures", len(c.Measures), cap(c.Measures), func(k int) string { return c.Measures[k].Attr })
	}
}

// TestAnswersMatchReference: over seeded random queries, AnswerStore on 1,
// 2, 4 and 8 shards and Approximate on a single tree encode, render and
// marshal like the map-based reference, and decode canonically; SelectStore and Select localize the
// same peers; TopK, TopKStore and Explain rank and render identically.
func TestAnswersMatchReference(t *testing.T) {
	b := bk.Medical()
	stores := oracleStores(t, b)
	tree := stores[0].Snapshot()
	answers, nonEmpty := 0, 0
	for qi, q := range oracleQueries(b, 2000) {
		if err := q.Validate(b); err != nil {
			t.Fatalf("query %d invalid: %v", qi, err)
		}
		for _, st := range stores {
			where := fmt.Sprintf("query %d (%s) shards=%d", qi, q, st.NumShards())
			sa, err := query.AnswerStore(st, q)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			ra, rp, rw, rv := refStore(st, q)
			if sa.Visited != rv {
				t.Fatalf("%s: visited %d, reference %d", where, sa.Visited, rv)
			}
			checkAnswer(t, where, sa.Answer, sa.Peers, sa.Visited, ra, rp)
			if sa.Weight != rw {
				t.Fatalf("%s: weight %v, reference %v", where, sa.Weight, rw)
			}
			if cap(sa.Peers) != len(sa.Peers) {
				t.Fatalf("%s: peers cap %d len %d", where, cap(sa.Peers), len(sa.Peers))
			}
			answers++
			if len(sa.Answer.Classes) > 0 {
				nonEmpty++
			}

			sel, err := query.SelectStore(st, q)
			if err != nil {
				t.Fatal(err)
			}
			if got := sel.Peers(); !equalPeers(got, rp) {
				t.Fatalf("%s: SelectStore peers %v, reference %v", where, got, rp)
			}
		}

		where := fmt.Sprintf("query %d (%s) tree", qi, q)
		c := refCompile(tree, q)
		zs, visited := c.selectTree(tree)
		sel, err := query.Select(tree, q)
		if err != nil {
			t.Fatal(err)
		}
		if sel.Visited != visited || len(sel.Summaries) != len(zs) {
			t.Fatalf("%s: selected %d of %d visited, reference %d of %d", where, len(sel.Summaries), sel.Visited, len(zs), visited)
		}
		ans, err := query.Approximate(tree, q, sel)
		if err != nil {
			t.Fatal(err)
		}
		peers := sel.Peers()
		if !equalPeers(peers, refPeers(zs)) {
			t.Fatalf("%s: Select peers %v, reference %v", where, peers, refPeers(zs))
		}
		checkAnswer(t, where, ans, peers, visited, c.approximate(tree, q, zs), refPeers(zs))

		top, err := query.TopK(tree, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !sameGraded(top, c.refGrade(zs)) {
			t.Fatalf("%s: TopK differs from the reference ranking", where)
		}
		_, exp, err := query.Explain(tree, q)
		if err != nil {
			t.Fatal(err)
		}
		intents := c.refIntents(tree)
		if len(exp.Steps) != len(intents) {
			t.Fatalf("%s: explain has %d steps, reference visits %d", where, len(exp.Steps), len(intents))
		}
		for i, step := range exp.Steps {
			if step.Intent != intents[i] {
				t.Fatalf("%s: explain step %d intent %q, reference %q", where, i, step.Intent, intents[i])
			}
		}
		if qi%8 == 0 {
			checkTopKStore(t, stores[2], q)
		}
	}
	if 2*nonEmpty < answers {
		t.Fatalf("only %d of %d answers have a class: the battery checks too little", nonEmpty, answers)
	}
}

// checkTopKStore holds the merged store ranking to the reference graded
// per shard and re-ranked by degree, then weight, then shard order.
func checkTopKStore(t *testing.T, st summarystore.Store, q query.Query) {
	t.Helper()
	got, err := query.TopKStore(st, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := refCompile(st.Vocab(), q)
	cands, _ := query.Candidates(st, q)
	var want []query.GradedSummary
	for _, s := range cands {
		st.View(s, func(t *saintetiq.Tree) {
			zs, _ := c.selectTree(t)
			want = append(want, c.refGrade(zs)...)
		})
	}
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].Degree != want[j].Degree {
			return want[i].Degree > want[j].Degree
		}
		return want[i].Weight > want[j].Weight
	})
	if !sameGraded(got, want) {
		t.Fatalf("query %s: TopKStore differs from the reference ranking", q)
	}
}

func equalPeers(a, b []saintetiq.PeerID) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameGraded(a, b []query.GradedSummary) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || a[i].Degree != b[i].Degree || a[i].Weight != b[i].Weight {
			return false
		}
	}
	return true
}
