// Package fuzzy implements the fuzzy-set substrate the SaintEtiQ
// summarization engine is built on: membership functions, linguistic terms,
// linguistic variables (Zadeh 1965, 1975) and fuzzy partitions of numeric
// domains.
//
// A linguistic variable attaches a small vocabulary of labels ("young",
// "adult", "old") to a numeric attribute; each label carries a membership
// function grading how well a raw value matches the label. The paper's
// Background Knowledge (BK) is a collection of such variables, one per
// summarized attribute.
package fuzzy

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Grade is a membership degree in [0, 1].
type Grade = float64

// Epsilon is the grade below which a membership is considered null.
// Mapping a value against a variable discards terms graded under Epsilon so
// that numerically-zero memberships never create spurious grid cells.
const Epsilon = 1e-9

// MembershipFunc grades how well a raw numeric value matches a linguistic
// label. Implementations must return values in [0, 1].
type MembershipFunc interface {
	// Grade returns the membership degree of x.
	Grade(x float64) Grade
	// Support returns the closed interval outside which Grade is zero.
	// Unbounded sides are reported as ±Inf.
	Support() (lo, hi float64)
}

// Trapezoid is the workhorse membership function: zero up to A, rising
// linearly on [A,B], one on [B,C], falling linearly on [C,D], zero beyond.
// Half-open shoulders are expressed with infinite A (left shoulder) or D
// (right shoulder). A triangle is the special case B == C.
type Trapezoid struct {
	A, B, C, D float64
}

// Validate checks A <= B <= C <= D (with infinities allowed on the outer
// breakpoints).
func (t Trapezoid) Validate() error {
	if math.IsNaN(t.A) || math.IsNaN(t.B) || math.IsNaN(t.C) || math.IsNaN(t.D) {
		return errors.New("fuzzy: trapezoid breakpoint is NaN")
	}
	if !(t.A <= t.B && t.B <= t.C && t.C <= t.D) {
		return fmt.Errorf("fuzzy: trapezoid breakpoints not ordered: %v", t)
	}
	if math.IsInf(t.B, 0) && !math.IsInf(t.A, 0) {
		return fmt.Errorf("fuzzy: trapezoid has infinite core bound with finite support: %v", t)
	}
	return nil
}

// Grade implements MembershipFunc.
func (t Trapezoid) Grade(x float64) Grade {
	switch {
	case x < t.A || x > t.D:
		return 0
	case x >= t.B && x <= t.C:
		return 1
	case x < t.B:
		// Rising edge. A finite, B finite, A < B here (x in [A,B)).
		if t.B == t.A {
			return 1
		}
		return (x - t.A) / (t.B - t.A)
	default:
		// Falling edge, x in (C, D].
		if t.D == t.C {
			return 1
		}
		return (t.D - x) / (t.D - t.C)
	}
}

// Support implements MembershipFunc.
func (t Trapezoid) Support() (float64, float64) { return t.A, t.D }

// String renders the breakpoints compactly.
func (t Trapezoid) String() string {
	return fmt.Sprintf("trap(%s,%s,%s,%s)", fnum(t.A), fnum(t.B), fnum(t.C), fnum(t.D))
}

func fnum(x float64) string {
	switch {
	case math.IsInf(x, -1):
		return "-inf"
	case math.IsInf(x, 1):
		return "+inf"
	default:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", x), "0"), ".")
	}
}

// Triangle returns the triangular membership function peaking at b.
func Triangle(a, b, c float64) Trapezoid { return Trapezoid{a, b, b, c} }

// LeftShoulder returns a function that is one up to b and falls to zero at c.
func LeftShoulder(b, c float64) Trapezoid {
	return Trapezoid{math.Inf(-1), math.Inf(-1), b, c}
}

// RightShoulder returns a function that rises from zero at a to one at b and
// stays one afterwards.
func RightShoulder(a, b float64) Trapezoid {
	return Trapezoid{a, b, math.Inf(1), math.Inf(1)}
}

// Term binds a linguistic label to its membership function.
type Term struct {
	Label string
	MF    MembershipFunc
}

// Membership is one graded label produced by fuzzifying a value.
type Membership struct {
	Label string
	Grade Grade
}

// String renders "0.30/adult" in the paper's notation.
func (m Membership) String() string {
	if m.Grade >= 1-Epsilon {
		return m.Label
	}
	return fmt.Sprintf("%.2f/%s", m.Grade, m.Label)
}

// Variable is a linguistic variable: an ordered vocabulary of terms over a
// numeric domain. Term order is meaningful (it reflects the order of the
// underlying intervals) and is preserved by all operations.
type Variable struct {
	name   string
	terms  []Term
	byName map[string]int
}

// NewVariable builds a linguistic variable from its terms. Labels must be
// unique and non-empty, and each membership function must validate if it is
// a Trapezoid.
func NewVariable(name string, terms ...Term) (*Variable, error) {
	if name == "" {
		return nil, errors.New("fuzzy: variable name is empty")
	}
	if len(terms) == 0 {
		return nil, fmt.Errorf("fuzzy: variable %q has no terms", name)
	}
	v := &Variable{name: name, terms: make([]Term, len(terms)), byName: make(map[string]int, len(terms))}
	for i, t := range terms {
		if t.Label == "" {
			return nil, fmt.Errorf("fuzzy: variable %q: term %d has empty label", name, i)
		}
		if t.MF == nil {
			return nil, fmt.Errorf("fuzzy: variable %q: term %q has nil membership function", name, t.Label)
		}
		if tr, ok := t.MF.(Trapezoid); ok {
			if err := tr.Validate(); err != nil {
				return nil, fmt.Errorf("fuzzy: variable %q term %q: %w", name, t.Label, err)
			}
		}
		if _, dup := v.byName[t.Label]; dup {
			return nil, fmt.Errorf("fuzzy: variable %q: duplicate term %q", name, t.Label)
		}
		v.byName[t.Label] = i
		v.terms[i] = t
	}
	return v, nil
}

// MustVariable is NewVariable that panics on error; for static vocabularies.
func MustVariable(name string, terms ...Term) *Variable {
	v, err := NewVariable(name, terms...)
	if err != nil {
		panic(err)
	}
	return v
}

// Name returns the variable's name.
func (v *Variable) Name() string { return v.name }

// Labels returns the term labels in declaration order.
func (v *Variable) Labels() []string {
	out := make([]string, len(v.terms))
	for i, t := range v.terms {
		out[i] = t.Label
	}
	return out
}

// Len returns the number of terms.
func (v *Variable) Len() int { return len(v.terms) }

// Index returns the position of label in the vocabulary, or -1.
func (v *Variable) Index(label string) int {
	if i, ok := v.byName[label]; ok {
		return i
	}
	return -1
}

// Fuzzify maps a raw value to its graded labels, in declaration order,
// discarding grades below Epsilon. For the paper's Figure 2 variable,
// Fuzzify(20) returns [0.70/young, 0.30/adult].
func (v *Variable) Fuzzify(x float64) []Membership {
	var out []Membership
	for _, t := range v.terms {
		if g := t.MF.Grade(x); g > Epsilon {
			out = append(out, Membership{Label: t.Label, Grade: g})
		}
	}
	return out
}

// Graded is one label of a variable by its position in the vocabulary,
// with the grade a value takes in it.
type Graded struct {
	Index int
	Grade Grade
}

// AppendFuzzify is Fuzzify by label position: it appends the value's
// graded labels to dst, in declaration order, discarding grades below
// Epsilon. It allocates nothing once dst has room for them.
func (v *Variable) AppendFuzzify(dst []Graded, x float64) []Graded {
	for i, t := range v.terms {
		if g := t.MF.Grade(x); g > Epsilon {
			dst = append(dst, Graded{Index: i, Grade: g})
		}
	}
	return dst
}

// LabelsIntersecting returns the labels whose support intersects the
// interval [lo, hi] (used by query reformulation: "BMI < 19" selects every
// label that could describe a value under 19).
func (v *Variable) LabelsIntersecting(lo, hi float64) []string {
	var out []string
	for _, t := range v.terms {
		slo, shi := t.MF.Support()
		if shi >= lo && slo <= hi {
			// Supports are closed intervals; positive-length overlap or a
			// touching endpoint with positive grade both qualify.
			if overlapPositive(t.MF, lo, hi, slo, shi) {
				out = append(out, t.Label)
			}
		}
	}
	return out
}

func overlapPositive(mf MembershipFunc, lo, hi, slo, shi float64) bool {
	l := math.Max(lo, slo)
	h := math.Min(hi, shi)
	if l > h {
		return false
	}
	if mf.Grade(l) > Epsilon || mf.Grade(h) > Epsilon {
		return true
	}
	return mf.Grade((l+h)/2) > Epsilon
}

// String renders the variable and its terms.
func (v *Variable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s{", v.name)
	for i, t := range v.terms {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.Label)
		if s, ok := t.MF.(fmt.Stringer); ok {
			fmt.Fprintf(&b, ":%s", s)
		}
	}
	b.WriteString("}")
	return b.String()
}

// UniformPartition builds a Ruspini partition of [lo, hi] with the given
// labels: left shoulder, triangles at evenly spaced peaks, right shoulder.
// It is the quick way to produce a Background Knowledge variable for an
// arbitrary numeric attribute.
func UniformPartition(name string, lo, hi float64, labels ...string) (*Variable, error) {
	n := len(labels)
	if n < 2 {
		return nil, fmt.Errorf("fuzzy: uniform partition needs >= 2 labels, got %d", n)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("fuzzy: uniform partition needs lo < hi, got [%g, %g]", lo, hi)
	}
	step := (hi - lo) / float64(n-1)
	terms := make([]Term, n)
	for i, lab := range labels {
		peak := lo + float64(i)*step
		switch i {
		case 0:
			terms[i] = Term{lab, LeftShoulder(peak, peak+step)}
		case n - 1:
			terms[i] = Term{lab, RightShoulder(peak-step, peak)}
		default:
			terms[i] = Term{lab, Triangle(peak-step, peak, peak+step)}
		}
	}
	return NewVariable(name, terms...)
}
