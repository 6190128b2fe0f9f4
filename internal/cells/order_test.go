package cells

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"p2psum/internal/bk"
	"p2psum/internal/data"
)

// awkwardLabels are labels whose joined keys sort differently from the
// labels themselves: a space sorts after KeySep, a tab before it, and a
// label may be a prefix of another.
var awkwardLabels = []string{"a", "a b", "ab", "a\tb", "a\t", "\t", "b"}

// awkwardRelation is a relation over age (numeric), mid (the awkward labels
// and 300 more, so its ranks take two bytes) and last (the awkward labels
// again, on the last attribute), with its BK.
func awkwardRelation(t testing.TB, seed int64, rows int) (*bk.BK, *data.Relation) {
	t.Helper()
	mid := slices.Clone(awkwardLabels)
	for i := 0; i < 300; i++ {
		mid = append(mid, fmt.Sprintf("w%03d", 299-i))
	}
	b, err := bk.New(bk.Medical().Attr("age"),
		&bk.AttrBK{Name: "mid", Kind: data.Categorical, Vocabulary: mid},
		&bk.AttrBK{Name: "last", Kind: data.Categorical, Vocabulary: awkwardLabels})
	if err != nil {
		t.Fatal(err)
	}
	rel := data.NewRelation("awkward", data.MustSchema(
		data.Attribute{Name: "age", Kind: data.Numeric},
		data.Attribute{Name: "mid", Kind: data.Categorical},
		data.Attribute{Name: "last", Kind: data.Categorical}))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < rows; i++ {
		m := mid[rng.Intn(len(awkwardLabels))] // mostly awkward labels, so cells repeat
		if rng.Intn(3) == 0 {
			m = mid[rng.Intn(len(mid))]
		}
		rel.MustInsert(data.Record{ID: fmt.Sprint(i), Values: []data.Value{
			data.NumValue(float64(rng.Intn(90))), data.StrValue(m),
			data.StrValue(awkwardLabels[rng.Intn(len(awkwardLabels))]),
		}})
	}
	return b, rel
}

// TestCellsOrderAsJoinedKeys holds Cells() to sort.Strings of the joined
// keys over labels that are prefixes of one another, hold bytes below and
// above KeySep on a middle and on the last attribute, and number more than
// 256 on one attribute: the order Cobweb sees is the order keys had.
func TestCellsOrderAsJoinedKeys(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		b, rel := awkwardRelation(t, seed, 200)
		m, err := NewMapper(b, rel.Schema())
		if err != nil {
			t.Fatal(err)
		}
		s := NewStore(m)
		s.AddRelation(rel)
		var keys []string
		for _, c := range s.Cells() {
			keys = append(keys, c.Key())
			for a, j := range c.Index() {
				if m.Labels(a)[j] != c.Labels[a] {
					t.Fatalf("cell %q: index %d on attribute %d names %q", c.Key(), j, a, m.Labels(a)[j])
				}
			}
		}
		if !slices.IsSorted(keys) || len(slices.Compact(slices.Clone(keys))) != len(keys) {
			t.Fatalf("seed %d: Cells() keys are not strictly ascending: %q", seed, keys)
		}
	}
}

// TestAppendLabelRanks pins the rank rule on the awkward labels, a
// repeated one, and labels holding KeySep (which a Mapper refuses, but a
// decoded vocabulary may carry): a middle attribute ranks by label+KeySep,
// the last by the plain label, and equal labels share a rank.
func TestAppendLabelRanks(t *testing.T) {
	labels := append(slices.Clone(awkwardLabels), "a", "a"+KeySep, "a"+KeySep+"b", KeySep)
	for _, last := range []bool{false, true} {
		rank := AppendLabelRanks([]int32{-1}, labels, last)[1:]
		for x := range labels {
			for y := range labels {
				kx, ky := labels[x], labels[y]
				if !last {
					kx, ky = kx+KeySep, ky+KeySep
				}
				if want := cmp.Compare(kx, ky); cmp.Compare(rank[x], rank[y]) != want {
					t.Errorf("last=%v: %q rank %d, %q rank %d, want order %d", last, labels[x], rank[x], labels[y], rank[y], want)
				}
			}
		}
	}
}
