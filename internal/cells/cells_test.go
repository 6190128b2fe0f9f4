package cells

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"p2psum/internal/bk"
	"p2psum/internal/data"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// cellOf returns the store's cell of the given labels, one per attribute,
// read off Cells(), or nil.
func cellOf(s *Store, labels ...string) *Cell {
	key := strings.Join(labels, KeySep)
	for _, c := range s.Cells() {
		if c.Key() == key {
			return c
		}
	}
	return nil
}

func paperMapper(t *testing.T) *Mapper {
	t.Helper()
	m, err := NewMapper(bk.PaperExample(), data.PatientSchema())
	if err != nil {
		t.Fatalf("NewMapper: %v", err)
	}
	return m
}

// TestTable2Mapping reproduces the paper's Table 2 exactly: the three
// Patient tuples map to cells c1=(young,underweight) count 2,
// c2=(young,normal) count 0.7 and c3=(adult,normal) count 0.3, with
// adult graded 0.3 in c3.
func TestTable2Mapping(t *testing.T) {
	s := NewStore(paperMapper(t))
	s.AddRelation(data.PaperPatients())

	if s.Len() != 3 {
		t.Fatalf("got %d cells, want 3:\n%s", s.Len(), s)
	}
	c1 := cellOf(s, "young", "underweight")
	if c1 == nil || !almost(c1.Count, 2) {
		t.Errorf("c1 = %v, want count 2", c1)
	}
	if c1 != nil && (!almost(c1.Grades[0], 1) || !almost(c1.Grades[1], 1)) {
		t.Errorf("c1 grades = %v, want [1 1]", c1.Grades)
	}
	c2 := cellOf(s, "young", "normal")
	if c2 == nil || !almost(c2.Count, 0.7) {
		t.Errorf("c2 = %v, want count 0.7", c2)
	}
	if c2 != nil && !almost(c2.Grades[0], 0.7) {
		t.Errorf("c2 young grade = %g, want 0.7", c2.Grades[0])
	}
	c3 := cellOf(s, "adult", "normal")
	if c3 == nil || !almost(c3.Count, 0.3) {
		t.Errorf("c3 = %v, want count 0.3", c3)
	}
	if c3 != nil && !almost(c3.Grades[0], 0.3) {
		t.Errorf("c3 adult grade = %g, want 0.3 (max membership)", c3.Grades[0])
	}
	if !almost(s.tuples, 3) {
		t.Errorf("TupleWeight = %g, want 3 (Ruspini preservation)", s.tuples)
	}
}

func TestCellMeasures(t *testing.T) {
	s := NewStore(paperMapper(t))
	s.AddRelation(data.PaperPatients())
	c1 := cellOf(s, "young", "underweight")
	if c1 == nil {
		t.Fatal("c1 missing")
	}
	// c1 holds t1 (age 15, bmi 17) and t3 (age 18, bmi 16.5), both weight 1.
	ageM := c1.Measures[0]
	if !almost(ageM.Min, 15) || !almost(ageM.Max, 18) || !almost(ageM.Sum/ageM.Weight, 16.5) {
		t.Errorf("c1 age measure min=%g max=%g mean=%g", ageM.Min, ageM.Max, ageM.Sum/ageM.Weight)
	}
	bmiM := c1.Measures[1]
	if !almost(bmiM.Min, 16.5) || !almost(bmiM.Max, 17) {
		t.Errorf("c1 bmi measure min=%g max=%g", bmiM.Min, bmiM.Max)
	}
}

func TestMeasureBasics(t *testing.T) {
	m := NewMeasure()
	if m.Weight != 0 || m.Sum != 0 || m.SumSq != 0 {
		t.Error("empty measure should carry no weight")
	}
	m.Add(10, 1)
	m.Add(20, 1)
	if !almost(m.Sum, 30) || !almost(m.SumSq, 500) || !almost(m.Min, 10) || !almost(m.Max, 20) {
		t.Errorf("after adding 10 and 20: %+v", m)
	}
	m.Add(99, 0) // zero weight ignored
	if !almost(m.Weight, 2) {
		t.Errorf("zero-weight add changed weight: %g", m.Weight)
	}
	var o Measure
	m.Merge(o) // empty merge is a no-op
	if !almost(m.Weight, 2) {
		t.Error("empty merge changed measure")
	}
	o = NewMeasure()
	o.Add(0, 2)
	m.Merge(o)
	if !almost(m.Weight, 4) || !almost(m.Min, 0) {
		t.Errorf("merge wrong: weight=%g min=%g", m.Weight, m.Min)
	}
}

func TestMapperRejectsBadSchema(t *testing.T) {
	wrong := data.MustSchema(data.Attribute{Name: "age", Kind: data.Categorical})
	if _, err := NewMapper(bk.PaperExample(), wrong); err == nil {
		t.Error("mismatched schema accepted")
	}
}

func TestMapUnknownCategoricalDropsRecord(t *testing.T) {
	m, err := NewMapper(bk.Medical(), data.PatientSchema())
	if err != nil {
		t.Fatal(err)
	}
	rec := data.Record{ID: "x", Values: []data.Value{
		data.NumValue(20), data.StrValue("unknown-sex"), data.NumValue(20), data.StrValue("malaria"),
	}}
	if got := m.Map(rec); got != nil {
		t.Errorf("record with out-of-vocabulary value mapped to %v, want nil", got)
	}
}

func TestMapFullMedical(t *testing.T) {
	m, err := NewMapper(bk.Medical(), data.PatientSchema())
	if err != nil {
		t.Fatal(err)
	}
	rec := data.Record{ID: "x", Values: []data.Value{
		data.NumValue(20), data.StrValue("female"), data.NumValue(20), data.StrValue("malaria"),
	}}
	cs := m.Map(rec)
	// age 20 -> young 0.7 / adult 0.3; bmi 20 -> normal 1.0; sex, disease crisp.
	if len(cs) != 2 {
		t.Fatalf("Map produced %d cells, want 2", len(cs))
	}
	total := 0.0
	for _, c := range cs {
		total += c.Count
		if len(c.Labels) != 4 {
			t.Errorf("cell has %d labels, want 4", len(c.Labels))
		}
	}
	if !almost(total, 1) {
		t.Errorf("total cell weight = %g, want 1", total)
	}
}

func TestStoreAddCellAndSnapshot(t *testing.T) {
	s := NewStore(paperMapper(t))
	s.AddRelation(data.PaperPatients())
	if len(s.Cells()) != 3 {
		t.Fatalf("Cells len = %d", len(s.Cells()))
	}
	// Fold the cells into a second store: same totals, and the second
	// store holds copies.
	s2 := NewStore(paperMapper(t))
	for _, c := range s.Cells() {
		if err := s2.AddCell(c); err != nil {
			t.Fatal(err)
		}
	}
	s2.Cells()[0].Count = 999
	if s.Cells()[0].Count == 999 {
		t.Error("AddCell aliases the added cell")
	}
	if !almost(s2.tuples, s.tuples) || s2.Len() != s.Len() {
		t.Errorf("AddCell rebuild differs: weight %g vs %g, len %d vs %d",
			s2.tuples, s.tuples, s2.Len(), s.Len())
	}
}

func TestStoreDeterministicOrder(t *testing.T) {
	s := NewStore(paperMapper(t))
	s.AddRelation(data.PaperPatients())
	first := make([]string, 0)
	for _, c := range s.Cells() {
		first = append(first, c.Key())
	}
	for trial := 0; trial < 5; trial++ {
		again := make([]string, 0)
		for _, c := range s.Cells() {
			again = append(again, c.Key())
		}
		if strings.Join(first, ";") != strings.Join(again, ";") {
			t.Fatal("Cells order is not deterministic")
		}
	}
}

func TestCellStringAndStoreString(t *testing.T) {
	s := NewStore(paperMapper(t))
	s.AddRelation(data.PaperPatients())
	out := s.String()
	if !strings.Contains(out, "young") || !strings.Contains(out, "0.30/adult") {
		t.Errorf("Store.String misses expected rendering:\n%s", out)
	}
}

// medicalGrid is the size of the medical BK's descriptor grid: 3 age ×
// 2 sex × 4 bmi × 10 disease labels.
const medicalGrid = 240

func TestGridBoundedLeaves(t *testing.T) {
	// The number of distinct cells can never exceed the BK grid size.
	b := bk.Medical()
	m, err := NewMapper(b, data.PatientSchema())
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(m)
	s.AddRelation(data.NewPatientGenerator(11, nil).Generate("r", 2000))
	if s.Len() > medicalGrid {
		t.Errorf("store has %d cells, grid bound is %d", s.Len(), medicalGrid)
	}
	if s.Len() < 10 {
		t.Errorf("store has only %d cells; generator looks degenerate", s.Len())
	}
}

// Property: mapping preserves tuple weight under the (Ruspini) medical BK:
// each mapped record contributes weight 1 in total, so TupleWeight equals
// the number of mapped records.
func TestQuickWeightPreservation(t *testing.T) {
	m, err := NewMapper(bk.Medical(), data.PatientSchema())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 1
		rel := data.NewPatientGenerator(seed, nil).Generate("q", n)
		s := NewStore(m)
		s.AddRelation(rel)
		return math.Abs(s.tuples-float64(n)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: cell counts are non-negative and grades stay in (0, 1].
func TestQuickCellInvariants(t *testing.T) {
	m, err := NewMapper(bk.Medical(), data.PatientSchema())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rel := data.NewPatientGenerator(seed, nil).Generate("q", 30)
		s := NewStore(m)
		s.AddRelation(rel)
		for _, c := range s.Cells() {
			if c.Count <= 0 {
				return false
			}
			for _, g := range c.Grades {
				if g <= 0 || g > 1+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
