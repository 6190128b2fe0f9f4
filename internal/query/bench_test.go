package query

import (
	"testing"

	"p2psum/internal/saintetiq"
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
