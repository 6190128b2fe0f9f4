package data

import (
	"fmt"
	"math/rand"
)

// PatientSchema returns the schema of the paper's Patient relation
// (Table 1): age, sex, BMI and disease.
func PatientSchema() *Schema {
	return MustSchema(
		Attribute{Name: "age", Kind: Numeric},
		Attribute{Name: "sex", Kind: Categorical},
		Attribute{Name: "bmi", Kind: Numeric},
		Attribute{Name: "disease", Kind: Categorical},
	)
}

// PaperPatients returns the exact three-tuple Patient relation of Table 1.
func PaperPatients() *Relation {
	rel := NewRelation("Patient", PatientSchema())
	rel.MustInsert(Record{ID: "t1", Values: []Value{NumValue(15), StrValue("female"), NumValue(17), StrValue("anorexia")}})
	rel.MustInsert(Record{ID: "t2", Values: []Value{NumValue(20), StrValue("male"), NumValue(20), StrValue("malaria")}})
	rel.MustInsert(Record{ID: "t3", Values: []Value{NumValue(18), StrValue("female"), NumValue(16.5), StrValue("anorexia")}})
	return rel
}

// Diseases is the closed disease vocabulary used by the synthetic generator
// and by the medical Common Background Knowledge. It stands in for the
// SNOMED CT terminology the paper cites: the protocols only require a fixed
// shared vocabulary, not a full ontology.
var Diseases = []string{
	"anorexia", "malaria", "diabetes", "influenza", "tuberculosis",
	"asthma", "hepatitis", "hypertension", "measles", "cholera",
}

// Sexes is the closed sex vocabulary of the Patient relation.
var Sexes = []string{"female", "male"}

// PatientProfile describes one disease's patient population so that the
// synthetic data has the content-dependent structure summaries exploit
// ("dead Malaria patients are typically children and old").
type PatientProfile struct {
	Disease   string
	AgeMean   float64
	AgeStd    float64
	BMIMean   float64
	BMIStd    float64
	FemalePct float64
}

// DefaultProfiles gives each disease a distinct demographic signature.
func DefaultProfiles() []PatientProfile {
	return []PatientProfile{
		{"anorexia", 17, 3, 16.5, 1.2, 0.85},
		{"malaria", 30, 22, 21, 2.5, 0.50},
		{"diabetes", 58, 12, 29, 3.5, 0.45},
		{"influenza", 35, 20, 23, 3.0, 0.50},
		{"tuberculosis", 45, 15, 19, 2.0, 0.40},
		{"asthma", 25, 18, 22, 3.0, 0.50},
		{"hepatitis", 40, 14, 23, 2.8, 0.45},
		{"hypertension", 62, 10, 28, 3.2, 0.48},
		{"measles", 8, 5, 17, 2.0, 0.50},
		{"cholera", 33, 19, 20, 2.2, 0.50},
	}
}

// PatientGenerator produces deterministic synthetic Patient relations. It is
// the stand-in for the real collaborative medical databases the paper
// motivates but does not publish.
type PatientGenerator struct {
	rng      *rand.Rand
	profiles []PatientProfile
	serial   int
}

// NewPatientGenerator seeds a generator. Profiles default to
// DefaultProfiles when nil.
func NewPatientGenerator(seed int64, profiles []PatientProfile) *PatientGenerator {
	if profiles == nil {
		profiles = DefaultProfiles()
	}
	return &PatientGenerator{rng: rand.New(rand.NewSource(seed)), profiles: profiles}
}

// Generate produces a relation of n patients drawn from the profiles.
func (g *PatientGenerator) Generate(name string, n int) *Relation {
	rel := NewRelation(name, PatientSchema())
	for i := 0; i < n; i++ {
		rel.MustInsert(g.Next())
	}
	return rel
}

// Next draws one synthetic patient.
func (g *PatientGenerator) Next() Record {
	prof := g.profiles[g.rng.Intn(len(g.profiles))]
	return g.fromProfile(prof)
}

func (g *PatientGenerator) fromProfile(p PatientProfile) Record {
	g.serial++
	age := clamp(g.rng.NormFloat64()*p.AgeStd+p.AgeMean, 0, 105)
	bmi := clamp(g.rng.NormFloat64()*p.BMIStd+p.BMIMean, 10, 60)
	sex := "male"
	if g.rng.Float64() < p.FemalePct {
		sex = "female"
	}
	return Record{
		ID: fmt.Sprintf("t%d", g.serial),
		Values: []Value{
			NumValue(round1(age)),
			StrValue(sex),
			NumValue(round1(bmi)),
			StrValue(p.Disease),
		},
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func round1(x float64) float64 {
	return float64(int(x*10+0.5)) / 10
}
