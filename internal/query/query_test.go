package query

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/data"
	"p2psum/internal/saintetiq"
)

func medicalTree(t *testing.T, seed int64, n int, peer saintetiq.PeerID) *saintetiq.Tree {
	t.Helper()
	m, err := cells.NewMapper(bk.Medical(), data.PatientSchema())
	if err != nil {
		t.Fatal(err)
	}
	s := cells.NewStore(m)
	s.AddRelation(data.NewPatientGenerator(seed, nil).Generate("r", n))
	tr := saintetiq.New(bk.Medical(), saintetiq.DefaultConfig())
	if err := tr.IncorporateStore(s, peer); err != nil {
		t.Fatal(err)
	}
	return tr
}

func paperTree(t *testing.T) *saintetiq.Tree {
	t.Helper()
	m, err := cells.NewMapper(bk.Medical(), data.PatientSchema())
	if err != nil {
		t.Fatal(err)
	}
	s := cells.NewStore(m)
	s.AddRelation(data.PaperPatients())
	tr := saintetiq.New(bk.Medical(), saintetiq.DefaultConfig())
	if err := tr.IncorporateStore(s, 1); err != nil {
		t.Fatal(err)
	}
	return tr
}

// paperQuery is the paper's §5 running query, already reformulated:
// select age where sex = female AND bmi in {underweight, normal} AND
// disease = anorexia.
func paperQuery() Query {
	return Query{
		Select: []string{"age"},
		Where: []Clause{
			{Attr: "sex", Labels: []string{"female"}},
			{Attr: "bmi", Labels: []string{"underweight", "normal"}},
			{Attr: "disease", Labels: []string{"anorexia"}},
		},
	}
}

// TestPaperReformulation reproduces §5.1: "BMI < 19" expands to
// {underweight, normal}; the categorical predicates stay crisp.
func TestPaperReformulation(t *testing.T) {
	b := bk.Medical()
	q, err := Reformulate(b, []string{"age"}, []Predicate{
		{Attr: "sex", Op: Eq, Strs: []string{"female"}},
		{Attr: "bmi", Op: Lt, Num: 19},
		{Attr: "disease", Op: Eq, Strs: []string{"anorexia"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := paperQuery()
	if q.String() != want.String() {
		t.Errorf("Reformulate =\n  %s\nwant\n  %s", q, want)
	}
}

func TestReformulateOperators(t *testing.T) {
	b := bk.Medical()
	cases := []struct {
		pred Predicate
		want string
	}{
		{Predicate{Attr: "age", Op: Eq, Num: 20}, "young|adult"},
		{Predicate{Attr: "age", Op: Gt, Num: 60}, "adult|old"},
		{Predicate{Attr: "age", Op: Between, Num: 30, Num2: 50}, "adult"},
		{Predicate{Attr: "bmi", Op: Ge, Num: 30}, "overweight|obese"},
		{Predicate{Attr: "sex", Op: In, Strs: []string{"f", "male"}}, "female|male"},
	}
	for _, c := range cases {
		q, err := Reformulate(b, []string{"age"}, []Predicate{c.pred})
		if err != nil {
			t.Errorf("Reformulate(%+v): %v", c.pred, err)
			continue
		}
		if got := strings.Join(q.Where[0].Labels, "|"); got != c.want {
			t.Errorf("Reformulate(%+v) = %s, want %s", c.pred, got, c.want)
		}
	}
}

func TestReformulateErrors(t *testing.T) {
	b := bk.Medical()
	if _, err := Reformulate(b, nil, []Predicate{{Attr: "ghost", Op: Eq, Num: 1}}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := Reformulate(b, nil, []Predicate{{Attr: "age", Op: In}}); err == nil {
		t.Error("In on numeric accepted")
	}
	if _, err := Reformulate(b, nil, []Predicate{{Attr: "sex", Op: Lt, Num: 3}}); err == nil {
		t.Error("Lt on categorical accepted")
	}
	if _, err := Reformulate(b, nil, []Predicate{{Attr: "sex", Op: Eq, Strs: []string{"cyborg"}}}); err == nil {
		t.Error("out-of-vocabulary value accepted")
	}
	if _, err := Reformulate(b, []string{"ghost"}, []Predicate{{Attr: "sex", Op: Eq, Strs: []string{"female"}}}); err == nil {
		t.Error("unknown select attribute accepted")
	}
}

func TestValidate(t *testing.T) {
	b := bk.Medical()
	if err := paperQuery().Validate(b); err != nil {
		t.Errorf("paper query invalid: %v", err)
	}
	bad := []Query{
		{Select: []string{"age"}},
		{Where: []Clause{{Attr: "ghost", Labels: []string{"x"}}}},
		{Where: []Clause{{Attr: "age", Labels: nil}}},
		{Where: []Clause{{Attr: "age", Labels: []string{"teen"}}}},
		{Select: []string{"ghost"}, Where: []Clause{{Attr: "age", Labels: []string{"young"}}}},
	}
	for i, q := range bad {
		if err := q.Validate(b); err == nil {
			t.Errorf("bad query %d accepted: %s", i, q)
		}
	}
}

// TestPaperApproximateAnswer reproduces the paper's §5.2.2 result: on the
// Table 1 data, the query returns age = {young} ("all female patients
// diagnosed with anorexia and having an underweight or normal BMI are young
// girls").
func TestPaperApproximateAnswer(t *testing.T) {
	tr := paperTree(t)
	q := paperQuery()
	sel, err := Select(tr, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Summaries) == 0 {
		t.Fatalf("selection is empty:\n%s", tr)
	}
	ans, err := Approximate(tr, q, sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Classes) == 0 {
		t.Fatal("no classes")
	}
	for _, c := range ans.Classes {
		got := strings.Join(c.Answers.Get("age"), ",")
		if got != "young" {
			t.Errorf("class %v answers age = %q, want young", c.Interpretation, got)
		}
	}
	if !strings.Contains(ans.String(), "age={young}") {
		t.Errorf("Answer.String misses age={young}:\n%s", ans)
	}
}

// TestSelectionSemantics checks the three valuation outcomes against a
// hand-built hierarchy.
func TestSelectionSemantics(t *testing.T) {
	tr := paperTree(t)
	// Malaria query: only t2 (male, malaria) matches; anorexia leaves prune.
	q := Query{Select: []string{"age"}, Where: []Clause{{Attr: "disease", Labels: []string{"malaria"}}}}
	sel, err := Select(tr, q)
	if err != nil {
		t.Fatal(err)
	}
	var weight float64
	for _, z := range sel.Summaries {
		weight += z.Count()
	}
	if !almostEq(weight, 1) {
		t.Errorf("malaria weight = %g, want 1 (t2 only)", weight)
	}
	// Nothing matches cholera.
	q2 := Query{Where: []Clause{{Attr: "disease", Labels: []string{"cholera"}}}}
	sel2, err := Select(tr, q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel2.Summaries) != 0 {
		t.Errorf("cholera matched %d summaries", len(sel2.Summaries))
	}
	// Everything matches the full disease list; ZQ should be just the root
	// (most abstract satisfying summary).
	q3 := Query{Where: []Clause{{Attr: "disease", Labels: append([]string(nil), data.Diseases...)}}}
	sel3, err := Select(tr, q3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel3.Summaries) != 1 || sel3.Summaries[0] != tr.Root() {
		t.Errorf("universal query selected %d summaries, want the root alone", len(sel3.Summaries))
	}
	if sel3.Visited != 1 {
		t.Errorf("universal query visited %d nodes, want 1", sel3.Visited)
	}
}

func TestSelectErrors(t *testing.T) {
	tr := paperTree(t)
	if _, err := Select(tr, Query{Where: []Clause{{Attr: "ghost", Labels: []string{"x"}}}}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := Select(tr, Query{Where: []Clause{{Attr: "age", Labels: []string{"teen"}}}}); err == nil {
		t.Error("unknown label accepted")
	}
	empty := saintetiq.New(bk.Medical(), saintetiq.DefaultConfig())
	sel, err := Select(empty, paperQuery())
	if err != nil || len(sel.Summaries) != 0 {
		t.Errorf("empty tree: sel=%v err=%v", sel.Summaries, err)
	}
}

func TestSelectionPeers(t *testing.T) {
	// Two peers with disjoint diseases; peer localization must separate
	// them.
	m, err := cells.NewMapper(bk.Medical(), data.PatientSchema())
	if err != nil {
		t.Fatal(err)
	}
	tr := saintetiq.New(bk.Medical(), saintetiq.DefaultConfig())

	g := data.NewPatientGenerator(80, nil)
	s1 := cells.NewStore(m)
	s1.AddRelation(g.GenerateBiased("p1", 150, "malaria", 1.0))
	if err := tr.IncorporateStore(s1, 1); err != nil {
		t.Fatal(err)
	}
	s2 := cells.NewStore(m)
	s2.AddRelation(g.GenerateBiased("p2", 150, "diabetes", 1.0))
	if err := tr.IncorporateStore(s2, 2); err != nil {
		t.Fatal(err)
	}

	q := Query{Where: []Clause{{Attr: "disease", Labels: []string{"malaria"}}}}
	sel, err := Select(tr, q)
	if err != nil {
		t.Fatal(err)
	}
	peers := sel.Peers()
	if len(peers) != 1 || peers[0] != 1 {
		t.Errorf("malaria peers = %v, want [1]", peers)
	}
	if sel.Weight() <= 0 {
		t.Error("selection weight not positive")
	}
}

func TestApproximateClassesAndMeasures(t *testing.T) {
	tr := medicalTree(t, 81, 600, 1)
	q := Query{
		Select: []string{"age", "bmi"},
		Where:  []Clause{{Attr: "disease", Labels: []string{"diabetes", "hypertension"}}},
	}
	sel, err := Select(tr, q)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := Approximate(tr, q, sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Classes) == 0 {
		t.Fatal("no classes for a populated disease pair")
	}
	var weight float64
	for _, c := range ans.Classes {
		weight += c.Weight
		if len(c.Answers.Get("age")) == 0 {
			t.Error("class has empty age answer")
		}
		if m := c.Measures.Get("age"); m.Weight <= 0 || m.Mean() < 0 || m.Mean() > 105 {
			t.Errorf("class age measure out of range: %+v", m)
		}
		if len(c.Peers) == 0 {
			t.Error("class has no peers")
		}
	}
	if !almostEq(weight, sel.Weight()) {
		t.Errorf("class weights %g != selection weight %g", weight, sel.Weight())
	}
	// Diabetes/hypertension populations are elderly in the generator, so
	// the answer should not contain "young"-only classes; at least one
	// class must mention adult or old.
	found := false
	for _, c := range ans.Classes {
		for _, lab := range c.Answers.Get("age") {
			if lab == "adult" || lab == "old" {
				found = true
			}
		}
	}
	if !found {
		t.Error("diabetes/hypertension answer never mentions adult/old")
	}
}

func TestApproximateErrors(t *testing.T) {
	tr := paperTree(t)
	q := paperQuery()
	sel, err := Select(tr, q)
	if err != nil {
		t.Fatal(err)
	}
	bad := q
	bad.Select = []string{"ghost"}
	if _, err := Approximate(tr, bad, sel); err == nil {
		t.Error("unknown select attribute accepted")
	}
}

func TestMatchRecord(t *testing.T) {
	b := bk.Medical()
	rel := data.PaperPatients()
	q := paperQuery()
	wants := []bool{true, false, true} // t1, t2, t3
	for i, want := range wants {
		if got := MatchRecord(b, rel, rel.Record(i), q); got != want {
			t.Errorf("MatchRecord(t%d) = %v, want %v", i+1, got, want)
		}
	}
	if got := CountMatches(b, rel, q); got != 2 {
		t.Errorf("CountMatches = %d, want 2", got)
	}
	// Unknown attribute in clause: no match.
	qBad := Query{Where: []Clause{{Attr: "ghost", Labels: []string{"x"}}}}
	if MatchRecord(b, rel, rel.Record(0), qBad) {
		t.Error("record matched clause on unknown attribute")
	}
}

// TestNoFalseNegatives is the §5.1 guarantee QS ⊆ QS*: every record that
// matches the raw predicates also matches the reformulated query, and the
// summary selection covers every matching record's cells.
func TestNoFalseNegatives(t *testing.T) {
	b := bk.Medical()
	rel := data.NewPatientGenerator(90, nil).Generate("r", 400)
	preds := []Predicate{
		{Attr: "bmi", Op: Lt, Num: 19},
		{Attr: "sex", Op: Eq, Strs: []string{"female"}},
	}
	q, err := Reformulate(b, []string{"age"}, preds)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range rel.Records() {
		bmi, _ := rel.Num(rec, "bmi")
		sex, _ := rel.Str(rec, "sex")
		rawMatch := bmi < 19 && sex == "female"
		if rawMatch && !MatchRecord(b, rel, rec, q) {
			t.Fatalf("false negative after reformulation: %v", rec)
		}
	}
}

// Property: selection results are consistent — every selected summary
// valuates at least partially, selected summaries are pairwise
// non-overlapping (no one is an ancestor of another), and peers of the
// selection are a subset of the root's peer extent.
func TestQuickSelectionConsistency(t *testing.T) {
	diseasePool := data.Diseases
	f := func(seed int64, dRaw uint8) bool {
		tr := medicalTreeQuick(seed)
		if tr == nil {
			return false
		}
		d := diseasePool[int(dRaw)%len(diseasePool)]
		q := Query{Select: []string{"age"}, Where: []Clause{{Attr: "disease", Labels: []string{d}}}}
		sel, err := Select(tr, q)
		if err != nil {
			return false
		}
		for i, a := range sel.Summaries {
			for j, b := range sel.Summaries {
				if i == j {
					continue
				}
				for p := a.Parent(); p != nil; p = p.Parent() {
					if p == b {
						return false // nested selection
					}
				}
			}
		}
		rootPeers := make(map[saintetiq.PeerID]bool)
		for _, p := range tr.Root().PeerIDs() {
			rootPeers[p] = true
		}
		for _, p := range sel.Peers() {
			if !rootPeers[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func medicalTreeQuick(seed int64) *saintetiq.Tree {
	m, err := cells.NewMapper(bk.Medical(), data.PatientSchema())
	if err != nil {
		return nil
	}
	s := cells.NewStore(m)
	s.AddRelation(data.NewPatientGenerator(seed, nil).Generate("r", 120))
	tr := saintetiq.New(bk.Medical(), saintetiq.DefaultConfig())
	if err := tr.IncorporateStore(s, 1); err != nil {
		return nil
	}
	return tr
}

// Property: the weight selected for a single-disease query equals the tuple
// weight of that disease's cells (selection neither loses nor invents
// records at the summary level).
func TestQuickSelectionWeightExact(t *testing.T) {
	f := func(seed int64, dRaw uint8) bool {
		m, err := cells.NewMapper(bk.Medical(), data.PatientSchema())
		if err != nil {
			return false
		}
		rel := data.NewPatientGenerator(seed, nil).Generate("r", 150)
		s := cells.NewStore(m)
		s.AddRelation(rel)
		tr := saintetiq.New(bk.Medical(), saintetiq.DefaultConfig())
		if err := tr.IncorporateStore(s, 1); err != nil {
			return false
		}
		d := data.Diseases[int(dRaw)%len(data.Diseases)]
		q := Query{Where: []Clause{{Attr: "disease", Labels: []string{d}}}}
		sel, err := Select(tr, q)
		if err != nil {
			return false
		}
		var want float64
		for _, c := range s.Cells() {
			if c.Labels[3] == d { // disease is the 4th BK attribute
				want += c.Count
			}
		}
		return almostEq(sel.Weight(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestValuationString(t *testing.T) {
	for v, want := range map[Valuation]string{NotSat: "not-satisfied", PartialSat: "partially-satisfied", FullSat: "fully-satisfied", Valuation(9): "?"} {
		if v.String() != want {
			t.Errorf("Valuation(%d) = %q", int(v), v.String())
		}
	}
}

func TestClauseAndQueryString(t *testing.T) {
	q := paperQuery()
	s := q.String()
	if !strings.Contains(s, "select age") || !strings.Contains(s, "(bmi in underweight|normal)") {
		t.Errorf("Query.String = %q", s)
	}
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestReformulateWithTaxonomy(t *testing.T) {
	b := bk.Medical()
	tax := bk.MedicalTaxonomy()
	q, err := ReformulateWithTaxonomy(b, tax, []string{"age"}, []Predicate{
		{Attr: "disease", Op: Eq, Strs: []string{"infectious"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where[0].Labels) != 6 {
		t.Errorf("infectious expanded to %v", q.Where[0].Labels)
	}
	// Plain labels pass through untouched, mixed with groups.
	q2, err := ReformulateWithTaxonomy(b, tax, nil, []Predicate{
		{Attr: "disease", Op: In, Strs: []string{"chronic", "anorexia"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(q2.Where[0].Labels) != 4 { // diabetes, asthma, hypertension + anorexia
		t.Errorf("mixed expansion = %v", q2.Where[0].Labels)
	}
	// Nil taxonomy falls back to plain reformulation.
	q3, err := ReformulateWithTaxonomy(b, nil, nil, []Predicate{
		{Attr: "disease", Op: Eq, Strs: []string{"malaria"}},
	})
	if err != nil || len(q3.Where[0].Labels) != 1 {
		t.Errorf("nil taxonomy fallback: %v (%v)", q3, err)
	}
	// Numeric predicates are untouched by the taxonomy.
	q4, err := ReformulateWithTaxonomy(b, tax, nil, []Predicate{
		{Attr: "bmi", Op: Lt, Num: 19},
	})
	if err != nil || len(q4.Where[0].Labels) != 2 {
		t.Errorf("numeric predicate disturbed: %v (%v)", q4, err)
	}
	// Invalid taxonomy rejected.
	badTax, err := bk.NewTaxonomy("ghost", map[string][]string{"g": {"x"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReformulateWithTaxonomy(b, badTax, nil, []Predicate{{Attr: "bmi", Op: Lt, Num: 19}}); err == nil {
		t.Error("invalid taxonomy accepted")
	}
}

// TestTaxonomyQueryEndToEnd: a group-level query must return the union of
// the member diseases' data.
func TestTaxonomyQueryEndToEnd(t *testing.T) {
	tr := medicalTree(t, 300, 700, 1)
	b := bk.Medical()
	tax := bk.MedicalTaxonomy()
	qGroup, err := ReformulateWithTaxonomy(b, tax, []string{"age"}, []Predicate{
		{Attr: "disease", Op: Eq, Strs: []string{"chronic"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	selGroup, err := Select(tr, qGroup)
	if err != nil {
		t.Fatal(err)
	}
	var manual float64
	for _, d := range tax.Expand("chronic") {
		q := Query{Where: []Clause{{Attr: "disease", Labels: []string{d}}}}
		sel, err := Select(tr, q)
		if err != nil {
			t.Fatal(err)
		}
		manual += sel.Weight()
	}
	if !almostEq(selGroup.Weight(), manual) {
		t.Errorf("group query weight %g != union of members %g", selGroup.Weight(), manual)
	}
}
