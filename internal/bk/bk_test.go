package bk

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"p2psum/internal/data"
	"p2psum/internal/fuzzy"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// grade is v's membership degree of x in label, read off Fuzzify.
func grade(v *fuzzy.Variable, label string, x float64) float64 {
	for _, m := range v.Fuzzify(x) {
		if m.Label == label {
			return m.Grade
		}
	}
	return 0
}

// ruspini reports whether v's membership grades sum to one, within 1e-9,
// at every step of [lo, hi].
func ruspini(v *fuzzy.Variable, lo, hi, step float64) bool {
	for x := lo; x <= hi; x += step {
		total := 0.0
		for _, m := range v.Fuzzify(x) {
			total += m.Grade
		}
		if math.Abs(total-1) > 1e-9 {
			return false
		}
	}
	return true
}

func TestMedicalCBKStructure(t *testing.T) {
	b := Medical()
	if b.Len() != 4 {
		t.Fatalf("Len = %d, want 4", b.Len())
	}
	var names []string
	grid := 1
	for _, a := range b.Attrs() {
		names = append(names, a.Name)
		grid *= len(a.Labels())
	}
	if got := strings.Join(names, ","); got != "age,sex,bmi,disease" {
		t.Errorf("attribute order = %s", got)
	}
	if b.Attr("age") == nil || b.Attr("ghost") != nil {
		t.Error("Attr lookups wrong")
	}
	if err := b.CheckSchema(data.PatientSchema()); err != nil {
		t.Errorf("CheckSchema: %v", err)
	}
	// 3 age * 2 sex * 4 bmi * 10 disease
	if grid != 240 {
		t.Errorf("grid size = %d, want 240", grid)
	}
	if !strings.Contains(b.String(), "disease") {
		t.Error("String misses attributes")
	}
}

func TestAgeVariableMatchesFigure2(t *testing.T) {
	v := AgeVariable()
	if g := grade(v, "young", 20); !almost(g, 0.7) {
		t.Errorf("young(20) = %g, want 0.7", g)
	}
	if g := grade(v, "adult", 20); !almost(g, 0.3) {
		t.Errorf("adult(20) = %g, want 0.3", g)
	}
	if !ruspini(v, 0, 110, 0.5) {
		t.Error("age partition not Ruspini")
	}
}

func TestBMIVariableMatchesPaper(t *testing.T) {
	v := BMIVariable()
	// "underweight perfectly matches (with degree 1) range [15, 17.5]"
	for _, x := range []float64{15, 16, 17.5} {
		if g := grade(v, "underweight", x); !almost(g, 1) {
			t.Errorf("underweight(%g) = %g, want 1", x, g)
		}
	}
	// "normal perfectly matches range [19.5, 24]"
	for _, x := range []float64{19.5, 20, 24} {
		if g := grade(v, "normal", x); !almost(g, 1) {
			t.Errorf("normal(%g) = %g, want 1", x, g)
		}
	}
	if !ruspini(v, 10, 60, 0.25) {
		t.Error("bmi partition not Ruspini")
	}
}

func TestMapCategoricalSynonyms(t *testing.T) {
	b := Medical()
	sex := b.Attr("sex")
	ms := sex.MapCategorical("f")
	if len(ms) != 1 || ms[0].Label != "female" || ms[0].Grade != 1 {
		t.Errorf("MapCategorical(f) = %v", ms)
	}
	if got := sex.MapCategorical("unknown"); got != nil {
		t.Errorf("MapCategorical(unknown) = %v, want nil", got)
	}
}

func TestAttrLabels(t *testing.T) {
	b := Medical()
	age := b.Attr("age")
	if got := strings.Join(age.Labels(), ","); got != "young,adult,old" {
		t.Errorf("age labels = %s", got)
	}
	if age.LabelIndex("adult") != 1 || age.LabelIndex("teen") != -1 {
		t.Error("LabelIndex numeric wrong")
	}
	dis := b.Attr("disease")
	if dis.LabelIndex("malaria") != 1 || dis.LabelIndex("plague") != -1 {
		t.Error("LabelIndex categorical wrong")
	}
	if !dis.HasLabel("cholera") || dis.HasLabel("plague") {
		t.Error("HasLabel wrong")
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("empty BK accepted")
	}
	if _, err := New(nil); err == nil {
		t.Error("nil attr accepted")
	}
	if _, err := New(&AttrBK{Name: "", Kind: data.Numeric}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := New(&AttrBK{Name: "x", Kind: data.Numeric}); err == nil {
		t.Error("numeric without variable accepted")
	}
	v := AgeVariable()
	if _, err := New(&AttrBK{Name: "notage", Kind: data.Numeric, Variable: v}); err == nil {
		t.Error("mismatched variable name accepted")
	}
	if _, err := New(&AttrBK{Name: "c", Kind: data.Categorical}); err == nil {
		t.Error("categorical without vocabulary accepted")
	}
	if _, err := New(CategoricalAttr("c", []string{"a", "a"}, nil)); err == nil {
		t.Error("duplicate vocabulary label accepted")
	}
	if _, err := New(CategoricalAttr("c", []string{""}, nil)); err == nil {
		t.Error("empty vocabulary label accepted")
	}
	if _, err := New(NumericAttr(v), NumericAttr(AgeVariable())); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := New(&AttrBK{Name: "x", Kind: data.Kind(9)}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestMustPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Must did not panic")
		}
	}()
	Must()
}

func TestCheckSchemaErrors(t *testing.T) {
	b := Medical()
	s := data.MustSchema(data.Attribute{Name: "age", Kind: data.Categorical})
	if err := b.CheckSchema(s); err == nil {
		t.Error("kind mismatch accepted")
	}
	s2 := data.MustSchema(data.Attribute{Name: "other", Kind: data.Numeric})
	if err := b.CheckSchema(s2); err == nil {
		t.Error("missing attribute accepted")
	}
}

func TestDescriptorsForRange(t *testing.T) {
	b := Medical()
	// The paper's reformulation: BMI < 19 -> {underweight, normal}.
	got, err := b.DescriptorsForRange("bmi", math.Inf(-1), 19)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != "underweight,normal" {
		t.Errorf("DescriptorsForRange(bmi,<19) = %v", got)
	}
	if _, err := b.DescriptorsForRange("sex", 0, 1); err == nil {
		t.Error("range on categorical accepted")
	}
	if _, err := b.DescriptorsForRange("ghost", 0, 1); err == nil {
		t.Error("range on unknown accepted")
	}
}

func TestDescriptorsForValue(t *testing.T) {
	b := Medical()
	got, err := b.DescriptorsForValue("age", data.NumValue(20))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != "young,adult" {
		t.Errorf("DescriptorsForValue(age,20) = %v", got)
	}
	got, err = b.DescriptorsForValue("sex", data.StrValue("m"))
	if err != nil || strings.Join(got, ",") != "male" {
		t.Errorf("DescriptorsForValue(sex,m) = %v (%v)", got, err)
	}
	if _, err := b.DescriptorsForValue("ghost", data.NumValue(1)); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestDescriptorString(t *testing.T) {
	d := Descriptor{Attr: "age", Label: "young"}
	if d.String() != "age=young" {
		t.Errorf("String = %q", d.String())
	}
}

func TestInfer(t *testing.T) {
	rel := data.NewPatientGenerator(3, nil).Generate("r", 200)
	b, err := Infer(rel, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 4 {
		t.Fatalf("inferred %d attributes, want 4", b.Len())
	}
	age := b.Attr("age")
	if age == nil || age.Kind != data.Numeric || age.Variable.Len() != 3 {
		t.Errorf("inferred age BK wrong: %+v", age)
	}
	dis := b.Attr("disease")
	if dis == nil || dis.Kind != data.Categorical || len(dis.Vocabulary) == 0 {
		t.Errorf("inferred disease BK wrong: %+v", dis)
	}
	if err := b.CheckSchema(rel.Schema()); err != nil {
		t.Errorf("inferred BK fails its own schema: %v", err)
	}
	if _, err := Infer(rel, 1); err == nil {
		t.Error("numericLabels=1 accepted")
	}
	empty := data.NewRelation("e", data.PatientSchema())
	if _, err := Infer(empty, 3); err == nil {
		t.Error("empty relation accepted")
	}
}

func TestInferConstantNumericAttr(t *testing.T) {
	s := data.MustSchema(data.Attribute{Name: "x", Kind: data.Numeric})
	rel := data.NewRelation("r", s)
	for i := 0; i < 5; i++ {
		rel.MustInsert(data.Record{ID: "t", Values: []data.Value{data.NumValue(7)}})
	}
	b, err := Infer(rel, 2)
	if err != nil {
		t.Fatalf("Infer on constant column: %v", err)
	}
	if got, _ := b.DescriptorsForValue("x", data.NumValue(7)); len(got) == 0 {
		t.Error("constant value maps to no descriptor")
	}
}

// Property: for any age in [0, 110], the fuzzified descriptors carry total
// grade 1 (Ruspini) and every label belongs to the vocabulary.
func TestQuickMedicalMappingCoherent(t *testing.T) {
	b := Medical()
	age := b.Attr("age")
	f := func(raw float64) bool {
		x := math.Mod(math.Abs(raw), 110)
		if math.IsNaN(x) {
			x = 0
		}
		ms := age.MapNumeric(x)
		total := 0.0
		for _, m := range ms {
			if !age.HasLabel(m.Label) {
				return false
			}
			total += m.Grade
		}
		return almost(total, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Guard: the fuzzy package epsilon is tiny relative to the smallest grade
// the medical BK can produce, so no legitimate membership is dropped.
func TestEpsilonSanity(t *testing.T) {
	if fuzzy.Epsilon > 1e-6 {
		t.Errorf("fuzzy.Epsilon = %g is too coarse", fuzzy.Epsilon)
	}
}
