package fuzzy

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// ruspini reports whether v's membership grades sum to one, within 1e-9,
// at every step of [lo, hi].
func ruspini(v *Variable, lo, hi, step float64) bool {
	for x := lo; x <= hi; x += step {
		total := 0.0
		for _, t := range v.terms {
			total += t.MF.Grade(x)
		}
		if math.Abs(total-1) > 1e-9 {
			return false
		}
	}
	return true
}

func TestTrapezoidGrade(t *testing.T) {
	tr := Trapezoid{0, 10, 20, 30}
	cases := []struct {
		x, want float64
	}{
		{-5, 0}, {0, 0}, {5, 0.5}, {10, 1}, {15, 1}, {20, 1}, {25, 0.5}, {30, 0}, {35, 0},
	}
	for _, c := range cases {
		if got := tr.Grade(c.x); !almost(got, c.want) {
			t.Errorf("Grade(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestTrapezoidDegenerateEdges(t *testing.T) {
	// Crisp interval: vertical rising and falling edges.
	cr := Trapezoid{5, 5, 8, 8}
	if g := cr.Grade(5); !almost(g, 1) {
		t.Errorf("crisp left endpoint grade = %g, want 1", g)
	}
	if g := cr.Grade(8); !almost(g, 1) {
		t.Errorf("crisp right endpoint grade = %g, want 1", g)
	}
	if g := cr.Grade(4.999); !almost(g, 0) {
		t.Errorf("crisp outside grade = %g, want 0", g)
	}
}

func TestShoulders(t *testing.T) {
	ls := LeftShoulder(10, 20)
	if g := ls.Grade(-1e18); !almost(g, 1) {
		t.Errorf("left shoulder at -inf side = %g, want 1", g)
	}
	if g := ls.Grade(15); !almost(g, 0.5) {
		t.Errorf("left shoulder mid = %g, want 0.5", g)
	}
	if g := ls.Grade(25); !almost(g, 0) {
		t.Errorf("left shoulder beyond = %g, want 0", g)
	}
	rs := RightShoulder(10, 20)
	if g := rs.Grade(1e18); !almost(g, 1) {
		t.Errorf("right shoulder at +inf side = %g, want 1", g)
	}
	if g := rs.Grade(15); !almost(g, 0.5) {
		t.Errorf("right shoulder mid = %g, want 0.5", g)
	}
}

func TestTrapezoidValidate(t *testing.T) {
	bad := []Trapezoid{
		{10, 5, 20, 30},
		{0, 25, 20, 30},
		{0, 10, 40, 30},
		{math.NaN(), 1, 2, 3},
	}
	for _, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("Validate(%v) = nil, want error", tr)
		}
	}
}

// ageVariable reproduces the paper's Figure 2 linguistic partition on age:
// fuzzify(20) must yield {0.7/young, 0.3/adult}, and 15 and 18 must be fully
// young (Table 2 maps t1 and t3 into the same cell c1).
func ageVariable(t *testing.T) *Variable {
	t.Helper()
	v, err := NewVariable("age",
		Term{"young", LeftShoulder(18, 74.0/3.0)},
		Term{"adult", Trapezoid{18, 74.0 / 3.0, 55, 65}},
		Term{"old", RightShoulder(55, 65)},
	)
	if err != nil {
		t.Fatalf("NewVariable: %v", err)
	}
	return v
}

func TestFigure2AgePartition(t *testing.T) {
	v := ageVariable(t)
	ms := v.Fuzzify(20)
	if len(ms) != 2 {
		t.Fatalf("Fuzzify(20) = %v, want two memberships", ms)
	}
	if ms[0].Label != "young" || !almost(ms[0].Grade, 0.7) {
		t.Errorf("Fuzzify(20)[0] = %v, want 0.7/young", ms[0])
	}
	if ms[1].Label != "adult" || !almost(ms[1].Grade, 0.3) {
		t.Errorf("Fuzzify(20)[1] = %v, want 0.3/adult", ms[1])
	}
	for _, age := range []float64{15, 18} {
		ms := v.Fuzzify(age)
		if len(ms) != 1 || ms[0].Label != "young" || !almost(ms[0].Grade, 1) {
			t.Errorf("Fuzzify(%g) = %v, want exactly young/1.0", age, ms)
		}
	}
	if !ruspini(v, 0, 120, 0.25) {
		t.Error("age partition is not Ruspini on [0,120]")
	}
}

func TestVariableLookups(t *testing.T) {
	v := ageVariable(t)
	if v.Name() != "age" {
		t.Errorf("Name = %q", v.Name())
	}
	if v.Len() != 3 {
		t.Errorf("Len = %d, want 3", v.Len())
	}
	if got := v.Labels(); len(got) != 3 || got[0] != "young" || got[2] != "old" {
		t.Errorf("Labels = %v", got)
	}
	if v.Index("adult") != 1 || v.Index("nope") != -1 {
		t.Errorf("Index lookups wrong: adult=%d nope=%d", v.Index("adult"), v.Index("nope"))
	}
}

func TestNewVariableErrors(t *testing.T) {
	if _, err := NewVariable(""); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewVariable("x"); err == nil {
		t.Error("no terms accepted")
	}
	if _, err := NewVariable("x", Term{"", Trapezoid{0, 0, 1, 1}}); err == nil {
		t.Error("empty label accepted")
	}
	if _, err := NewVariable("x", Term{"a", nil}); err == nil {
		t.Error("nil MF accepted")
	}
	if _, err := NewVariable("x", Term{"a", Trapezoid{0, 0, 1, 1}}, Term{"a", Trapezoid{1, 1, 2, 2}}); err == nil {
		t.Error("duplicate label accepted")
	}
	if _, err := NewVariable("x", Term{"a", Trapezoid{3, 2, 1, 0}}); err == nil {
		t.Error("invalid trapezoid accepted")
	}
}

func TestMustVariablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustVariable did not panic on invalid input")
		}
	}()
	MustVariable("")
}

func TestLabelsIntersecting(t *testing.T) {
	// BMI partition from the paper: underweight perfectly matches
	// [15, 17.5], normal perfectly matches [19.5, 24].
	v := MustVariable("bmi",
		Term{"underweight", LeftShoulder(17.5, 19.5)},
		Term{"normal", Trapezoid{17.5, 19.5, 24, 27}},
		Term{"overweight", Trapezoid{24, 27, 29, 32}},
		Term{"obese", RightShoulder(29, 32)},
	)
	// The paper's query "BMI < 19" must expand to {underweight, normal}.
	got := v.LabelsIntersecting(math.Inf(-1), 19)
	if len(got) != 2 || got[0] != "underweight" || got[1] != "normal" {
		t.Errorf("LabelsIntersecting(-inf,19) = %v, want [underweight normal]", got)
	}
	got = v.LabelsIntersecting(25, 26)
	if len(got) != 2 || got[0] != "normal" || got[1] != "overweight" {
		t.Errorf("LabelsIntersecting(25,26) = %v", got)
	}
	got = v.LabelsIntersecting(40, 50)
	if len(got) != 1 || got[0] != "obese" {
		t.Errorf("LabelsIntersecting(40,50) = %v", got)
	}
	// Touching at a zero-grade endpoint must not match: underweight's
	// support ends at 19.5 with grade 0.
	got = v.LabelsIntersecting(19.5, 19.5)
	if len(got) != 1 || got[0] != "normal" {
		t.Errorf("LabelsIntersecting(19.5,19.5) = %v, want [normal]", got)
	}
}

func TestUniformPartition(t *testing.T) {
	v, err := UniformPartition("load", 0, 100, "low", "medium", "high")
	if err != nil {
		t.Fatalf("UniformPartition: %v", err)
	}
	if !ruspini(v, 0, 100, 0.5) {
		t.Error("uniform partition is not Ruspini")
	}
	if _, err := UniformPartition("x", 0, 1, "only"); err == nil {
		t.Error("single-label partition accepted")
	}
	if _, err := UniformPartition("x", 5, 5, "a", "b"); err == nil {
		t.Error("empty domain accepted")
	}
}

func TestMembershipString(t *testing.T) {
	if s := (Membership{"adult", 0.3}).String(); s != "0.30/adult" {
		t.Errorf("String = %q", s)
	}
	if s := (Membership{"young", 1}).String(); s != "young" {
		t.Errorf("String = %q", s)
	}
}

// Property: trapezoid grades always lie in [0, 1].
func TestQuickTrapezoidRange(t *testing.T) {
	f := func(a, b, c, d, x float64) bool {
		// Order the breakpoints to get a valid trapezoid.
		vals := []float64{abs(a), abs(a) + abs(b), abs(a) + abs(b) + abs(c), abs(a) + abs(b) + abs(c) + abs(d)}
		tr := Trapezoid{vals[0], vals[1], vals[2], vals[3]}
		g := tr.Grade(x)
		return g >= 0 && g <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: grade is monotone non-decreasing on the rising edge and
// non-increasing on the falling edge.
func TestQuickTrapezoidMonotone(t *testing.T) {
	tr := Trapezoid{0, 10, 20, 30}
	f := func(x, y float64) bool {
		x, y = math.Mod(abs(x), 10), math.Mod(abs(y), 10)
		if x > y {
			x, y = y, x
		}
		if tr.Grade(x) > tr.Grade(y)+1e-12 {
			return false
		}
		xf, yf := 20+x, 20+y
		return tr.Grade(xf) >= tr.Grade(yf)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: for a uniform partition, total membership is 1 everywhere in the
// domain (Ruspini property).
func TestQuickUniformPartitionRuspini(t *testing.T) {
	v, err := UniformPartition("q", 0, 1000, "a", "b", "c", "d", "e")
	if err != nil {
		t.Fatal(err)
	}
	f := func(x float64) bool {
		x = math.Mod(abs(x), 1000)
		total := 0.0
		for _, tm := range v.terms {
			total += tm.MF.Grade(x)
		}
		return math.Abs(total-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// abs sanitizes arbitrary quick-generated floats into small non-negative
// magnitudes so derived breakpoints cannot overflow.
func abs(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(math.Abs(x), 1e6)
}
