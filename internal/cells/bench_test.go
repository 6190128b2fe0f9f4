package cells

import (
	"testing"

	"p2psum/internal/bk"
	"p2psum/internal/data"
)

// BenchmarkStoreAddRelation maps one peer's 60-row medical relation into a
// fresh store and lists its cells: the local-summary half of every
// data-level peer's setup, before IncorporateStore.
func BenchmarkStoreAddRelation(b *testing.B) {
	m, err := NewMapper(bk.Medical(), data.PatientSchema())
	if err != nil {
		b.Fatal(err)
	}
	rel := data.NewPatientGenerator(42, nil).Generate("r", 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewStore(m)
		s.AddRelation(rel)
		if len(s.Cells()) == 0 {
			b.Fatal("no cells")
		}
	}
}
