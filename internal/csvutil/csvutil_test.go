package csvutil

import (
	"strings"
	"testing"
	"testing/quick"

	"p2psum/internal/data"
	"p2psum/internal/query"
)

const sample = `id,age,sex,bmi,disease
t1,15,female,17,anorexia
t2,20,male,20,malaria
t3,18,female,16.5,anorexia
`

func TestLoadInfersSchema(t *testing.T) {
	rel, err := Load("patients", strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 3 {
		t.Fatalf("Len = %d", rel.Len())
	}
	s := rel.Schema()
	wantKinds := map[string]data.Kind{
		"age": data.Numeric, "sex": data.Categorical, "bmi": data.Numeric, "disease": data.Categorical,
	}
	for name, kind := range wantKinds {
		i := s.Index(name)
		if i < 0 {
			t.Fatalf("missing attribute %q", name)
		}
		if s.Attr(i).Kind != kind {
			t.Errorf("attribute %q inferred %v, want %v", name, s.Attr(i).Kind, kind)
		}
	}
	bmi, err := rel.Num(rel.Records()[2], "bmi")
	if err != nil || bmi != 16.5 {
		t.Errorf("t3.bmi = %g (%v)", bmi, err)
	}
}

func TestLoadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"header only": "id,a\n",
		"no attrs":    "id\nt1\n",
		"ragged":      "id,a\nt1,1,2\n",
		"bad csv":     "id,a\n\"unterminated\n",
	}
	for name, input := range cases {
		if _, err := Load("x", strings.NewReader(input)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestLoadMixedColumnFallsBackToCategorical(t *testing.T) {
	in := "id,x\nt1,12\nt2,abc\n"
	rel, err := Load("m", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Schema().Attr(0).Kind != data.Categorical {
		t.Error("mixed column should be categorical")
	}
}

func loadSample(t *testing.T) *data.Relation {
	t.Helper()
	rel, err := Load("patients", strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestParsePredicates(t *testing.T) {
	rel := loadSample(t)
	preds, err := ParsePredicates(rel, "sex=female; bmi<19 ;disease=anorexia|malaria")
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 3 {
		t.Fatalf("got %d predicates", len(preds))
	}
	if preds[0].Attr != "sex" || preds[0].Op != query.Eq || preds[0].Strs[0] != "female" {
		t.Errorf("pred 0 = %+v", preds[0])
	}
	if preds[1].Attr != "bmi" || preds[1].Op != query.Lt || preds[1].Num != 19 {
		t.Errorf("pred 1 = %+v", preds[1])
	}
	if preds[2].Op != query.In || len(preds[2].Strs) != 2 {
		t.Errorf("pred 2 = %+v", preds[2])
	}
}

func TestParsePredicatesOperators(t *testing.T) {
	rel := loadSample(t)
	cases := map[string]query.Op{
		"bmi<19":  query.Lt,
		"bmi<=19": query.Le,
		"bmi>19":  query.Gt,
		"bmi>=19": query.Ge,
		"bmi=19":  query.Eq,
	}
	for in, want := range cases {
		preds, err := ParsePredicates(rel, in)
		if err != nil {
			t.Errorf("%q: %v", in, err)
			continue
		}
		if preds[0].Op != want {
			t.Errorf("%q parsed op %v, want %v", in, preds[0].Op, want)
		}
	}
}

func TestParsePredicatesErrors(t *testing.T) {
	rel := loadSample(t)
	bad := []string{
		"",
		";;",
		"noop",
		"=value",
		"bmi<",
		"ghost=1",
		"bmi<abc",
		"sex<female",
	}
	for _, in := range bad {
		if _, err := ParsePredicates(rel, in); err == nil {
			t.Errorf("%q accepted", in)
		}
	}
}

func TestSplitSelect(t *testing.T) {
	got := SplitSelect(" age , bmi,,disease ")
	if len(got) != 3 || got[0] != "age" || got[2] != "disease" {
		t.Errorf("SplitSelect = %v", got)
	}
	if SplitSelect("") != nil {
		t.Error("empty select should be nil")
	}
}

// TestEndToEndWithQuery wires Load + ParsePredicates into the query
// pipeline: the paper's example should flow through a CSV round trip.
func TestEndToEndWithQuery(t *testing.T) {
	rel := loadSample(t)
	preds, err := ParsePredicates(rel, "sex=female;bmi<19;disease=anorexia")
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 3 {
		t.Fatal("wrong predicate count")
	}
}

// Property: Load never panics and either errors or returns a relation
// whose record count matches the input rows.
func TestQuickLoadTotal(t *testing.T) {
	f := func(nRaw uint8, numeric bool) bool {
		n := int(nRaw%20) + 1
		var sb strings.Builder
		sb.WriteString("id,x\n")
		for i := 0; i < n; i++ {
			if numeric {
				sb.WriteString("t,1.5\n")
			} else {
				sb.WriteString("t,abc\n")
			}
		}
		rel, err := Load("q", strings.NewReader(sb.String()))
		return err == nil && rel.Len() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
