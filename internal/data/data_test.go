package data

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestSchemaBasics(t *testing.T) {
	s := PatientSchema()
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if s.Index("bmi") != 2 || s.Index("nope") != -1 {
		t.Errorf("Index lookups wrong")
	}
	if got := s.Names(); strings.Join(got, ",") != "age,sex,bmi,disease" {
		t.Errorf("Names = %v", got)
	}
	if s.Attr(0).Kind != Numeric || s.Attr(1).Kind != Categorical {
		t.Errorf("attribute kinds wrong")
	}
	if Numeric.String() != "numeric" || Categorical.String() != "categorical" {
		t.Errorf("Kind.String wrong")
	}
	if Kind(42).String() == "" {
		t.Errorf("unknown kind renders empty")
	}
}

func TestNewSchemaErrors(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := NewSchema(Attribute{Name: ""}); err == nil {
		t.Error("empty attribute name accepted")
	}
	if _, err := NewSchema(Attribute{Name: "a"}, Attribute{Name: "a"}); err == nil {
		t.Error("duplicate attribute accepted")
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSchema did not panic")
		}
	}()
	MustSchema()
}

func TestPaperPatients(t *testing.T) {
	rel := PaperPatients()
	if rel.Len() != 3 {
		t.Fatalf("Len = %d, want 3", rel.Len())
	}
	age, err := rel.Num(rel.Records()[1], "age")
	if err != nil || age != 20 {
		t.Errorf("t2.age = %g (%v), want 20", age, err)
	}
	dis, err := rel.Str(rel.Records()[0], "disease")
	if err != nil || dis != "anorexia" {
		t.Errorf("t1.disease = %q (%v), want anorexia", dis, err)
	}
	if _, err := rel.Num(rel.Records()[0], "sex"); err == nil {
		t.Error("Num on categorical attribute accepted")
	}
	if _, err := rel.Str(rel.Records()[0], "age"); err == nil {
		t.Error("Str on numeric attribute accepted")
	}
	if _, err := rel.Num(rel.Records()[0], "ghost"); err == nil {
		t.Error("Num on unknown attribute accepted")
	}
	if _, err := rel.Str(rel.Records()[0], "ghost"); err == nil {
		t.Error("Str on unknown attribute accepted")
	}
	if !strings.Contains(rel.String(), "anorexia") {
		t.Error("String() misses tuple content")
	}
}

func TestInsertArity(t *testing.T) {
	rel := NewRelation("r", PatientSchema())
	err := rel.Insert(Record{ID: "x", Values: []Value{NumValue(1)}})
	if err == nil {
		t.Error("arity mismatch accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustInsert did not panic")
		}
	}()
	rel.MustInsert(Record{ID: "x", Values: []Value{NumValue(1)}})
}

func TestCSVRoundTrip(t *testing.T) {
	rel := PaperPatients()
	var buf bytes.Buffer
	if err := rel.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV("Patient", PatientSchema(), &buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if back.Len() != rel.Len() {
		t.Fatalf("round trip lost tuples: %d != %d", back.Len(), rel.Len())
	}
	for i := range rel.Records() {
		a, b := rel.Records()[i], back.Records()[i]
		if a.ID != b.ID {
			t.Errorf("record %d id %q != %q", i, a.ID, b.ID)
		}
		for j := range a.Values {
			if a.Values[j] != b.Values[j] {
				t.Errorf("record %d value %d: %v != %v", i, j, a.Values[j], b.Values[j])
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	s := PatientSchema()
	if _, err := ReadCSV("r", s, strings.NewReader("")); err == nil {
		t.Error("empty csv accepted")
	}
	if _, err := ReadCSV("r", s, strings.NewReader("id,age\nx,1\n")); err == nil {
		t.Error("column mismatch accepted")
	}
	bad := "id,age,sex,bmi,disease\nx,notanumber,female,17,anorexia\n"
	if _, err := ReadCSV("r", s, strings.NewReader(bad)); err == nil {
		t.Error("non-numeric cell accepted")
	}
}

func TestDistinctStr(t *testing.T) {
	rel := PaperPatients()
	got, err := rel.DistinctStr("disease")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "anorexia" || got[1] != "malaria" {
		t.Errorf("DistinctStr(disease) = %v", got)
	}
	if _, err := rel.DistinctStr("age"); err == nil {
		t.Error("DistinctStr on numeric accepted")
	}
	if _, err := rel.DistinctStr("ghost"); err == nil {
		t.Error("DistinctStr on unknown accepted")
	}
}

func TestPatientGeneratorDeterminism(t *testing.T) {
	a := NewPatientGenerator(7, nil).Generate("a", 100)
	b := NewPatientGenerator(7, nil).Generate("b", 100)
	for i := 0; i < 100; i++ {
		ra, rb := a.Records()[i], b.Records()[i]
		for j := range ra.Values {
			if ra.Values[j] != rb.Values[j] {
				t.Fatalf("same seed diverged at record %d attr %d", i, j)
			}
		}
	}
	c := NewPatientGenerator(8, nil).Generate("c", 100)
	same := true
	for i := 0; i < 100 && same; i++ {
		for j := range a.Records()[i].Values {
			if a.Records()[i].Values[j] != c.Records()[i].Values[j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical relations")
	}
}

func TestPatientGeneratorRanges(t *testing.T) {
	rel := NewPatientGenerator(42, nil).Generate("r", 500)
	known := make(map[string]bool, len(Diseases))
	for _, d := range Diseases {
		known[d] = true
	}
	for _, rec := range rel.Records() {
		age, _ := rel.Num(rec, "age")
		bmi, _ := rel.Num(rec, "bmi")
		sex, _ := rel.Str(rec, "sex")
		dis, _ := rel.Str(rec, "disease")
		if age < 0 || age > 105 {
			t.Fatalf("age %g out of range", age)
		}
		if bmi < 10 || bmi > 60 {
			t.Fatalf("bmi %g out of range", bmi)
		}
		if sex != "female" && sex != "male" {
			t.Fatalf("sex %q unexpected", sex)
		}
		if !known[dis] {
			t.Fatalf("disease %q not in vocabulary", dis)
		}
	}
}

// Property: every generated record is schema-conformant and CSV round-trips.
func TestQuickGeneratorCSV(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		rel := NewPatientGenerator(seed, nil).Generate("q", n)
		var buf bytes.Buffer
		if err := rel.WriteCSV(&buf); err != nil {
			return false
		}
		back, err := ReadCSV("q", PatientSchema(), &buf)
		if err != nil || back.Len() != n {
			return false
		}
		for i := 0; i < n; i++ {
			for j := range rel.Records()[i].Values {
				if rel.Records()[i].Values[j] != back.Records()[i].Values[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
