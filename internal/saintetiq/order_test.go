package saintetiq

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/data"
	"p2psum/internal/wire"
)

// awkwardStore maps a relation whose labels make joined-key order differ
// from label order — prefixes of one another, a space (after KeySep) and a
// tab (before it) on a middle and on the last attribute, and more than 256
// labels on the middle one — into a store, and returns its BK too.
func awkwardStore(t testing.TB, seed int64, rows int) (*bk.BK, *cells.Store) {
	t.Helper()
	awkward := []string{"a", "a b", "ab", "a\tb", "a\t", "\t", "b"}
	mid := slices.Clone(awkward)
	for i := 0; i < 300; i++ {
		mid = append(mid, fmt.Sprintf("w%03d", 299-i))
	}
	b, err := bk.New(bk.Medical().Attr("age"),
		&bk.AttrBK{Name: "mid", Kind: data.Categorical, Vocabulary: mid},
		&bk.AttrBK{Name: "last", Kind: data.Categorical, Vocabulary: awkward})
	if err != nil {
		t.Fatal(err)
	}
	schema := data.MustSchema(
		data.Attribute{Name: "age", Kind: data.Numeric},
		data.Attribute{Name: "mid", Kind: data.Categorical},
		data.Attribute{Name: "last", Kind: data.Categorical})
	m, err := cells.NewMapper(b, schema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	s := cells.NewStore(m)
	for i := 0; i < rows; i++ {
		lab := mid[rng.Intn(len(awkward))]
		if rng.Intn(3) == 0 {
			lab = mid[rng.Intn(len(mid))]
		}
		s.AddRecord(data.Record{Values: []data.Value{
			data.NumValue(float64(rng.Intn(90))), data.StrValue(lab), data.StrValue(awkward[rng.Intn(len(awkward))]),
		}})
	}
	return b, s
}

// TestLeavesOrderAsJoinedKeys holds the leaf index to sort.Strings of the
// leaves' joined keys on the awkward vocabulary, through IncorporateStore,
// a merge of two such trees, a clone and a decode: Leaves() ascends by key,
// the index covers exactly the leaves (checkLeafIndex), and every tree
// validates.
func TestLeavesOrderAsJoinedKeys(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		var trees []*Tree
		for peer := PeerID(0); peer < 2; peer++ {
			b, s := awkwardStore(t, 2*seed+int64(peer), 150)
			tr := New(b, DefaultConfig())
			if err := tr.IncorporateStore(s, peer); err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, c := range s.Cells() {
				want = append(want, c.Key())
			}
			got := leafKeys(tr)
			for k := range min(len(got), len(want)) {
				if got[k] != want[k] {
					t.Fatalf("seed %d: leaf %d is %q, the store's cell %q", seed, k, got[k], want[k])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d: %d leaves, %d cells", seed, len(got), len(want))
			}
			trees = append(trees, tr)
		}
		merged := trees[0].Clone()
		if err := merged.Merge(trees[1]); err != nil {
			t.Fatal(err)
		}
		back, err := DecodeWire(wire.NewDec(encodeTree(merged)))
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range append(trees, merged, merged.Clone(), back) {
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			checkLeafIndex(t, tr)
			if keys := leafKeys(tr); !slices.IsSorted(keys) {
				t.Fatalf("seed %d: Leaves() keys not ascending: %q", seed, keys)
			}
		}
		if !back.LeavesEqual(merged) {
			t.Fatalf("seed %d: the decoded merge has other leaves", seed)
		}
	}
}

// leafKeys lists the keys of Leaves(), in order.
func leafKeys(tr *Tree) []string {
	var keys []string
	for _, n := range tr.Leaves() {
		keys = append(keys, n.Key())
	}
	return keys
}

// TestIncorporateStoreOtherVocabulary incorporates a store whose BK orders
// the medical diseases the other way round: its cells' label indexes are
// not the tree's columns, so IncorporateStore looks the labels up by name,
// and builds the tree the medical store builds, byte for byte. A store
// naming a label the tree lacks is refused.
func TestIncorporateStoreOtherVocabulary(t *testing.T) {
	diseases := slices.Clone(data.Diseases)
	slices.Reverse(diseases)
	reversed := bk.Must(bk.NumericAttr(bk.AgeVariable()),
		bk.CategoricalAttr("sex", slices.Clone(data.Sexes), nil),
		bk.NumericAttr(bk.BMIVariable()),
		bk.CategoricalAttr("disease", diseases, nil))
	m, err := cells.NewMapper(reversed, data.PatientSchema())
	if err != nil {
		t.Fatal(err)
	}
	s := cells.NewStore(m)
	s.AddRelation(data.NewPatientGenerator(5, nil).Generate("r", 80))
	want := localTree(t, DefaultConfig(), 5, 80, 2)
	got := New(bk.Medical(), DefaultConfig())
	if err := got.IncorporateStore(s, 2); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(encodeTree(got), encodeTree(want)) {
		t.Fatal("a store over a reordered vocabulary built another tree")
	}
	if err := New(bk.PaperExample(), DefaultConfig()).IncorporateStore(s, 2); err == nil {
		t.Fatal("a store over another BK was incorporated")
	}
}
