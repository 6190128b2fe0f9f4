// Package bk implements Background Knowledge (BK): the user-provided
// vocabulary that drives the SaintEtiQ mapping service (paper §3.2.1).
//
// A BK selects the attributes that are relevant to summarization and, for
// each of them, fixes the set of linguistic descriptors raw values are
// rewritten into: fuzzy linguistic variables for numeric attributes and
// crisp vocabularies for categorical ones. In a collaborative P2P setting
// every peer shares the same Common Background Knowledge (CBK, §4.1), the
// paper's stand-in for terminologies such as SNOMED CT.
package bk

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"p2psum/internal/data"
	"p2psum/internal/fuzzy"
)

// Descriptor identifies one linguistic label of one attribute.
type Descriptor struct {
	Attr  string
	Label string
}

// String renders "age=young".
func (d Descriptor) String() string { return d.Attr + "=" + d.Label }

// AttrBK is the background knowledge attached to a single attribute.
type AttrBK struct {
	Name string
	Kind data.Kind

	// Variable fuzzifies numeric attributes. Nil for categorical ones.
	Variable *fuzzy.Variable

	// Vocabulary lists the admissible labels of a categorical attribute in
	// a fixed order. Nil for numeric ones (labels live in Variable).
	Vocabulary []string

	// Synonyms optionally folds raw categorical values into vocabulary
	// labels (e.g. "m" -> "male"), modelling the terminology-normalization
	// role of a CBK.
	Synonyms map[string]string

	vocabIndex map[string]int
}

// Labels returns the attribute's descriptor labels in canonical order.
func (a *AttrBK) Labels() []string {
	if a.Kind == data.Numeric {
		return a.Variable.Labels()
	}
	return a.Vocabulary
}

// LabelIndex returns the canonical position of a label, or -1.
func (a *AttrBK) LabelIndex(label string) int {
	if a.Kind == data.Numeric {
		return a.Variable.Index(label)
	}
	if i, ok := a.vocabIndex[label]; ok {
		return i
	}
	return -1
}

// HasLabel reports whether the label belongs to the attribute's vocabulary.
func (a *AttrBK) HasLabel(label string) bool { return a.LabelIndex(label) >= 0 }

// MapNumeric fuzzifies a numeric value into graded descriptors.
func (a *AttrBK) MapNumeric(x float64) []fuzzy.Membership {
	return a.Variable.Fuzzify(x)
}

// MapCategorical normalizes a raw categorical value into its vocabulary
// label (grade 1). Unknown values map to nothing, mirroring how the mapping
// service drops values outside the BK grid.
func (a *AttrBK) MapCategorical(raw string) []fuzzy.Membership {
	norm := a.normalize(raw)
	if !a.HasLabel(norm) {
		return nil
	}
	return []fuzzy.Membership{{Label: norm, Grade: 1}}
}

// normalize folds a raw categorical value through the synonyms.
func (a *AttrBK) normalize(raw string) string {
	if s, ok := a.Synonyms[raw]; ok {
		return s
	}
	return raw
}

// AppendGraded maps one raw value of the attribute by label position: it
// appends the value's positively graded descriptors to dst, in label order
// (Fuzzify for a numeric attribute, the normalized label at grade 1 for a
// categorical one, nothing for a value outside the BK). It allocates
// nothing once dst has room for them.
func (a *AttrBK) AppendGraded(dst []fuzzy.Graded, v data.Value) []fuzzy.Graded {
	if a.Kind == data.Numeric {
		return a.Variable.AppendFuzzify(dst, v.Num)
	}
	if j := a.LabelIndex(a.normalize(v.Str)); j >= 0 {
		dst = append(dst, fuzzy.Graded{Index: j, Grade: 1})
	}
	return dst
}

// BK is a Background Knowledge over a relational schema: the ordered set of
// summarized attributes and their vocabularies.
type BK struct {
	attrs  []*AttrBK
	byName map[string]int
}

// New assembles and validates a BK.
func New(attrs ...*AttrBK) (*BK, error) {
	if len(attrs) == 0 {
		return nil, errors.New("bk: no attributes")
	}
	b := &BK{attrs: attrs, byName: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if a == nil {
			return nil, fmt.Errorf("bk: attribute %d is nil", i)
		}
		if a.Name == "" {
			return nil, fmt.Errorf("bk: attribute %d has empty name", i)
		}
		if _, dup := b.byName[a.Name]; dup {
			return nil, fmt.Errorf("bk: duplicate attribute %q", a.Name)
		}
		switch a.Kind {
		case data.Numeric:
			if a.Variable == nil {
				return nil, fmt.Errorf("bk: numeric attribute %q has no linguistic variable", a.Name)
			}
			if a.Variable.Name() != a.Name {
				return nil, fmt.Errorf("bk: attribute %q bound to variable %q", a.Name, a.Variable.Name())
			}
		case data.Categorical:
			if len(a.Vocabulary) == 0 {
				return nil, fmt.Errorf("bk: categorical attribute %q has empty vocabulary", a.Name)
			}
			a.vocabIndex = make(map[string]int, len(a.Vocabulary))
			for j, lab := range a.Vocabulary {
				if lab == "" {
					return nil, fmt.Errorf("bk: attribute %q has empty label at %d", a.Name, j)
				}
				if _, dup := a.vocabIndex[lab]; dup {
					return nil, fmt.Errorf("bk: attribute %q has duplicate label %q", a.Name, lab)
				}
				a.vocabIndex[lab] = j
			}
		default:
			return nil, fmt.Errorf("bk: attribute %q has unknown kind %v", a.Name, a.Kind)
		}
		b.byName[a.Name] = i
	}
	return b, nil
}

// Must is New that panics on error; for static CBK definitions.
func Must(attrs ...*AttrBK) *BK {
	b, err := New(attrs...)
	if err != nil {
		panic(err)
	}
	return b
}

// Len returns the number of summarized attributes.
func (b *BK) Len() int { return len(b.attrs) }

// Attrs returns the attributes in canonical order; callers must not mutate.
func (b *BK) Attrs() []*AttrBK { return b.attrs }

// Attr returns the named attribute's BK, or nil.
func (b *BK) Attr(name string) *AttrBK {
	if i, ok := b.byName[name]; ok {
		return b.attrs[i]
	}
	return nil
}

// CheckSchema verifies that every BK attribute exists in the schema with a
// matching kind. The BK may cover a subset of the schema (the paper
// summarizes age and bmi only in its walkthrough).
func (b *BK) CheckSchema(s *data.Schema) error {
	for _, a := range b.attrs {
		i := s.Index(a.Name)
		if i < 0 {
			return fmt.Errorf("bk: attribute %q not in schema", a.Name)
		}
		if s.Attr(i).Kind != a.Kind {
			return fmt.Errorf("bk: attribute %q is %v in schema, %v in bk", a.Name, s.Attr(i).Kind, a.Kind)
		}
	}
	return nil
}

// DescriptorsForRange returns the labels of a numeric attribute whose
// support intersects [lo, hi]; it backs query reformulation (§5.1).
func (b *BK) DescriptorsForRange(attr string, lo, hi float64) ([]string, error) {
	a := b.Attr(attr)
	if a == nil {
		return nil, fmt.Errorf("bk: unknown attribute %q", attr)
	}
	if a.Kind != data.Numeric {
		return nil, fmt.Errorf("bk: attribute %q is not numeric", attr)
	}
	return a.Variable.LabelsIntersecting(lo, hi), nil
}

// DescriptorsForValue returns the labels describing one raw value with a
// positive grade: the fuzzified labels of a numeric value, or the normalized
// label of a categorical one.
func (b *BK) DescriptorsForValue(attr string, v data.Value) ([]string, error) {
	a := b.Attr(attr)
	if a == nil {
		return nil, fmt.Errorf("bk: unknown attribute %q", attr)
	}
	var ms []fuzzy.Membership
	if a.Kind == data.Numeric {
		ms = a.MapNumeric(v.Num)
	} else {
		ms = a.MapCategorical(v.Str)
	}
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Label
	}
	return out, nil
}

// String summarizes the BK structure.
func (b *BK) String() string {
	var sb strings.Builder
	sb.WriteString("BK{")
	for i, a := range b.attrs {
		if i > 0 {
			sb.WriteString("; ")
		}
		fmt.Fprintf(&sb, "%s(%v):%s", a.Name, a.Kind, strings.Join(a.Labels(), "|"))
	}
	sb.WriteString("}")
	return sb.String()
}

// NumericAttr builds the BK entry of a numeric attribute.
func NumericAttr(v *fuzzy.Variable) *AttrBK {
	return &AttrBK{Name: v.Name(), Kind: data.Numeric, Variable: v}
}

// CategoricalAttr builds the BK entry of a categorical attribute.
func CategoricalAttr(name string, vocabulary []string, synonyms map[string]string) *AttrBK {
	return &AttrBK{Name: name, Kind: data.Categorical, Vocabulary: vocabulary, Synonyms: synonyms}
}

// AgeVariable returns the paper's Figure 2 linguistic partition on age.
// It is a Ruspini partition with young's core ending at 18 (so that ages 15
// and 18 are fully young, as Table 2 requires) and fuzzify(20) =
// {0.7/young, 0.3/adult} exactly as in the paper.
func AgeVariable() *fuzzy.Variable {
	const youngEnd = 74.0 / 3.0 // chosen so grade_young(20) = 0.7
	return fuzzy.MustVariable("age",
		fuzzy.Term{Label: "young", MF: fuzzy.LeftShoulder(18, youngEnd)},
		fuzzy.Term{Label: "adult", MF: fuzzy.Trapezoid{A: 18, B: youngEnd, C: 55, D: 65}},
		fuzzy.Term{Label: "old", MF: fuzzy.RightShoulder(55, 65)},
	)
}

// BMIVariable returns the paper's BMI partition: underweight perfectly
// matches [15, 17.5] and normal perfectly matches [19.5, 24] (§3.2.1).
func BMIVariable() *fuzzy.Variable {
	return fuzzy.MustVariable("bmi",
		fuzzy.Term{Label: "underweight", MF: fuzzy.LeftShoulder(17.5, 19.5)},
		fuzzy.Term{Label: "normal", MF: fuzzy.Trapezoid{A: 17.5, B: 19.5, C: 24, D: 27}},
		fuzzy.Term{Label: "overweight", MF: fuzzy.Trapezoid{A: 24, B: 27, C: 29, D: 32}},
		fuzzy.Term{Label: "obese", MF: fuzzy.RightShoulder(29, 32)},
	)
}

// Medical returns the Common Background Knowledge of the paper's medical
// collaboration: the Patient schema summarized on age, sex, bmi and disease.
// The disease vocabulary is the compact SNOMED-like list of data.Diseases.
func Medical() *BK {
	return Must(
		NumericAttr(AgeVariable()),
		CategoricalAttr("sex", append([]string(nil), data.Sexes...), map[string]string{"f": "female", "m": "male"}),
		NumericAttr(BMIVariable()),
		CategoricalAttr("disease", append([]string(nil), data.Diseases...), nil),
	)
}

// PaperExample returns the two-attribute BK (age, bmi) used in the paper's
// Table 2 walkthrough, where sex and disease are kept but not summarized.
func PaperExample() *BK {
	return Must(NumericAttr(AgeVariable()), NumericAttr(BMIVariable()))
}

// Infer builds a BK automatically from a relation: numeric attributes get a
// uniform linguistic partition with the given labels-per-attribute count,
// categorical attributes get their observed distinct values. It lets the
// sumql tool summarize arbitrary CSV files without a hand-written CBK.
func Infer(rel *data.Relation, numericLabels int) (*BK, error) {
	if numericLabels < 2 {
		return nil, fmt.Errorf("bk: need >= 2 labels per numeric attribute, got %d", numericLabels)
	}
	if rel.Len() == 0 {
		return nil, errors.New("bk: cannot infer from empty relation")
	}
	var attrs []*AttrBK
	for i := 0; i < rel.Schema().Len(); i++ {
		a := rel.Schema().Attr(i)
		if a.Kind == data.Numeric {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, rec := range rel.Records() {
				x := rec.Values[i].Num
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
			if lo == hi {
				hi = lo + 1
			}
			labels := make([]string, numericLabels)
			for j := range labels {
				labels[j] = fmt.Sprintf("%s_l%d", a.Name, j)
			}
			v, err := fuzzy.UniformPartition(a.Name, lo, hi, labels...)
			if err != nil {
				return nil, fmt.Errorf("bk: infer %q: %w", a.Name, err)
			}
			attrs = append(attrs, NumericAttr(v))
		} else {
			vocab, err := rel.DistinctStr(a.Name)
			if err != nil {
				return nil, err
			}
			sort.Strings(vocab)
			attrs = append(attrs, CategoricalAttr(a.Name, vocab, nil))
		}
	}
	return New(attrs...)
}
