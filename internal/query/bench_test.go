package query

import (
	"testing"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/data"
	"p2psum/internal/saintetiq"
	"p2psum/internal/summarystore"
)

// BenchmarkValuate valuates every node of a fixed 4-shard store against a
// three-clause proposition — the per-node step of every §5.2 descent. CI
// gates it at 0 allocs/op: valuation reads the intent in place.
func BenchmarkValuate(b *testing.B) {
	_, sharded, bkb := storeFixture(b, 4)
	q, err := Reformulate(bkb, []string{"age"}, []Predicate{
		{Attr: "age", Op: Le, Num: 45},
		{Attr: "bmi", Op: Between, Num: 18, Num2: 30},
		{Attr: "sex", Op: Eq, Strs: []string{"female"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	c, err := compile(sharded.Vocab(), q)
	if err != nil {
		b.Fatal(err)
	}
	var nodes []saintetiq.Node
	for s := 0; s < sharded.NumShards(); s++ {
		sharded.View(s, func(t *saintetiq.Tree) {
			var walk func(n saintetiq.Node)
			walk = func(n saintetiq.Node) {
				nodes = append(nodes, n)
				for ch := range n.Children() {
					walk(ch)
				}
			}
			if !t.Empty() {
				walk(t.Root())
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	sat := 0
	for i := 0; i < b.N; i++ {
		for _, n := range nodes {
			if c.valuate(n) != NotSat {
				sat++
			}
		}
	}
	if sat == 0 {
		b.Fatal("no node satisfies the proposition")
	}
}

// distinctQueries returns n distinct queries over b's vocabulary, each
// with a non-empty WHERE and SELECT. A counter scrambled by an odd
// multiplier — a bijection modulo a power of two — picks one label subset
// per attribute (no clause when empty) and the SELECT attributes.
func distinctQueries(b *bk.BK, n int) []Query {
	attrs := b.Attrs()
	bits := len(attrs)
	for _, a := range attrs {
		bits += len(a.Labels())
	}
	var qs []Query
	for x := uint64(0); len(qs) < n; x++ {
		code := x * 0x9e3779b97f4a7c15 & (1<<bits - 1)
		var q Query
		for _, a := range attrs {
			cl := Clause{Attr: a.Name}
			for _, lab := range a.Labels() {
				if code&1 != 0 {
					cl.Labels = append(cl.Labels, lab)
				}
				code >>= 1
			}
			if cl.Labels != nil {
				q.Where = append(q.Where, cl)
			}
		}
		for _, a := range attrs {
			if code&1 != 0 {
				q.Select = append(q.Select, a.Name)
			}
			code >>= 1
		}
		if len(q.Where) > 0 && len(q.Select) > 0 {
			qs = append(qs, q)
		}
	}
	return qs
}

// BenchmarkAnswerStoreDistinct answers a cycle of 512 distinct queries on
// a store shaped like the serving workloads' — 25 peers of 60 rows each
// in 4 shards — one query per op, as a gateway miss does. CI gates its
// allocs/op: beyond compiling, the query should allocate little more than
// the answer it returns.
func BenchmarkAnswerStoreDistinct(b *testing.B) {
	bkb := bk.Medical()
	cfg := saintetiq.DefaultConfig()
	st := summarystore.New(bkb, cfg, 4)
	mapper, err := cells.NewMapper(bkb, data.PatientSchema())
	if err != nil {
		b.Fatal(err)
	}
	for p := 0; p < 25; p++ {
		cs := cells.NewStore(mapper)
		cs.AddRelation(data.NewPatientGenerator(int64(700+p), nil).Generate("r", 60))
		tr := saintetiq.New(bkb, cfg)
		if err := tr.IncorporateStore(cs, saintetiq.PeerID(p)); err != nil {
			b.Fatal(err)
		}
		if err := st.Merge(tr); err != nil {
			b.Fatal(err)
		}
	}
	qs := distinctQueries(bkb, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnswerStore(st, qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}
