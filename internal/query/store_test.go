package query

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/data"
	"p2psum/internal/par"
	"p2psum/internal/saintetiq"
	"p2psum/internal/summarystore"
)

// storeFixture builds a single-tree store and a sharded store fed the same
// seeded per-peer workload.
func storeFixture(t testing.TB, shards int) (single, sharded *summarystore.Store, b *bk.BK) {
	t.Helper()
	b = bk.Medical()
	cfg := saintetiq.DefaultConfig()
	single = summarystore.New(b, cfg, 1)
	sharded = summarystore.New(b, cfg, shards)
	mapper, err := cells.NewMapper(b, data.PatientSchema())
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 6; p++ {
		cs := cells.NewStore(mapper)
		cs.AddRelation(data.NewPatientGenerator(int64(500+p), nil).Generate("r", 50))
		tr := saintetiq.New(b, cfg)
		if err := tr.IncorporateStore(cs, saintetiq.PeerID(p)); err != nil {
			t.Fatal(err)
		}
		for _, st := range []*summarystore.Store{single, sharded} {
			if err := st.Merge(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	return single, sharded, b
}

// storeQueries is a battery of reformulated queries spanning narrow and
// wide selections over the medical BK.
func storeQueries(t testing.TB, b *bk.BK) []Query {
	t.Helper()
	specs := [][]Predicate{
		{{Attr: "age", Op: Lt, Num: 30}},
		{{Attr: "age", Op: Ge, Num: 60}, {Attr: "sex", Op: Eq, Strs: []string{"female"}}},
		{{Attr: "bmi", Op: Between, Num: 18, Num2: 25}},
		{{Attr: "disease", Op: In, Strs: []string{"anorexia", "influenza"}}, {Attr: "age", Op: Le, Num: 45}},
	}
	var out []Query
	for _, preds := range specs {
		q, err := Reformulate(b, []string{"age", "bmi"}, preds)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, q)
	}
	return out
}

func approxf(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-6*(1+a)
}

// TestStoreQueryEquivalence: for every shard count, the fanned-out store
// query returns the same structure-invariant results as the single tree —
// identical peer localization, identical selection weight, identical
// answered-descriptor unions, and class weights that add up to the same
// total.
func TestStoreQueryEquivalence(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			single, sharded, b := storeFixture(t, shards)
			for qi, q := range storeQueries(t, b) {
				sa, err := AnswerStore(single, q)
				if err != nil {
					t.Fatalf("query %d single: %v", qi, err)
				}
				sb, err := AnswerStore(sharded, q)
				if err != nil {
					t.Fatalf("query %d sharded: %v", qi, err)
				}
				if !reflect.DeepEqual(sa.Peers, sb.Peers) {
					t.Errorf("query %d: peers %v vs %v", qi, sa.Peers, sb.Peers)
				}
				if !approxf(sa.Weight, sb.Weight) {
					t.Errorf("query %d: weight %v vs %v", qi, sa.Weight, sb.Weight)
				}
				if !reflect.DeepEqual(answerUnion(sa.Answer, q), answerUnion(sb.Answer, q)) {
					t.Errorf("query %d: answered descriptors differ:\n%v\nvs\n%v",
						qi, answerUnion(sa.Answer, q), answerUnion(sb.Answer, q))
				}
				if !approxf(classWeight(sa.Answer), classWeight(sb.Answer)) {
					t.Errorf("query %d: class weights %v vs %v", qi, classWeight(sa.Answer), classWeight(sb.Answer))
				}
				if sb.Visited == 0 && len(sb.Peers) > 0 {
					t.Errorf("query %d: sharded answer visited no nodes", qi)
				}
			}
		})
	}
}

// answerUnion collapses an answer to its structure-invariant content: per
// select attribute, the union of descriptors over all classes (kept in
// canonical vocabulary order by construction).
func answerUnion(a *Answer, q Query) map[string][]string {
	out := make(map[string][]string)
	for _, name := range q.Select {
		present := make(map[string]bool)
		var order []string
		for _, c := range a.Classes {
			for _, lab := range c.Answers.Get(name) {
				if !present[lab] {
					present[lab] = true
					order = append(order, lab)
				}
			}
		}
		out[name] = sortedLabels(present)
	}
	return out
}

func sortedLabels(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for lab := range set {
		out = append(out, lab)
	}
	sort.Strings(out)
	return out
}

func classWeight(a *Answer) float64 {
	var w float64
	for _, c := range a.Classes {
		w += c.Weight
	}
	return w
}

// TestStoreQueryOneShardIdenticalClasses: with one shard the merged answer
// must equal the plain single-tree Approximate, class for class.
func TestStoreQueryOneShardIdenticalClasses(t *testing.T) {
	single, _, b := storeFixture(t, 2)
	for qi, q := range storeQueries(t, b) {
		sa, err := AnswerStore(single, q)
		if err != nil {
			t.Fatal(err)
		}
		tree := single.Snapshot()
		sel, err := Select(tree, q)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := Approximate(tree, q, sel)
		if err != nil {
			t.Fatal(err)
		}
		if len(sa.Answer.Classes) != len(ans.Classes) {
			t.Fatalf("query %d: %d classes vs %d direct", qi, len(sa.Answer.Classes), len(ans.Classes))
		}
		for i := range ans.Classes {
			if !reflect.DeepEqual(sa.Answer.Classes[i].Interpretation, ans.Classes[i].Interpretation) ||
				!reflect.DeepEqual(sa.Answer.Classes[i].Answers, ans.Classes[i].Answers) ||
				!approxf(sa.Answer.Classes[i].Weight, ans.Classes[i].Weight) {
				t.Errorf("query %d class %d differs from direct Approximate", qi, i)
			}
		}
		if sel.Visited != sa.Visited {
			t.Errorf("query %d: visited %d vs direct %d", qi, sa.Visited, sel.Visited)
		}
	}
}

// TestSelectStoreMergesShards: SelectStore's merged selection carries the
// same peers and weight as the single-tree selection.
func TestSelectStoreMergesShards(t *testing.T) {
	single, sharded, b := storeFixture(t, 4)
	for qi, q := range storeQueries(t, b) {
		s1, err := SelectStore(single, q)
		if err != nil {
			t.Fatal(err)
		}
		s4, err := SelectStore(sharded, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s1.Peers(), s4.Peers()) {
			t.Errorf("query %d: peers %v vs %v", qi, s1.Peers(), s4.Peers())
		}
		if !approxf(s1.Weight(), s4.Weight()) {
			t.Errorf("query %d: weight %v vs %v", qi, s1.Weight(), s4.Weight())
		}
	}
}

// TestTopKStoreRanking: merged graded results come back ranked by degree
// then weight, bounded by k, and deterministic across repeated runs.
func TestTopKStoreRanking(t *testing.T) {
	_, sharded, b := storeFixture(t, 4)
	q := storeQueries(t, b)[0]
	first, err := TopKStore(sharded, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("no graded summaries")
	}
	for i := 1; i < len(first); i++ {
		if first[i].Degree > first[i-1].Degree {
			t.Fatalf("ranking violates degree order at %d", i)
		}
		if first[i].Degree == first[i-1].Degree && first[i].Weight > first[i-1].Weight {
			t.Fatalf("ranking violates weight tie-break at %d", i)
		}
	}
	topped, err := TopKStore(sharded, q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(topped) != 3 {
		t.Fatalf("k=3 returned %d", len(topped))
	}
	again, err := TopKStore(sharded, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i].Degree != again[i].Degree || first[i].Weight != again[i].Weight {
			t.Fatalf("repeat run reordered graded results at %d", i)
		}
	}
}

// TestSwapSeesMeasureOnlyChange: an install whose only difference from the
// store is a leaf's measures (an age moving from 30 to 35, fully adult both
// times, so the cell key, weight and grades stay put) still replaces that
// leaf's shard, at one shard and at four, and AnswerStore reports the new
// measures instead of the old ones.
func TestSwapSeesMeasureOnlyChange(t *testing.T) {
	b := bk.Medical()
	cfg := saintetiq.DefaultConfig()
	mapper, err := cells.NewMapper(b, data.PatientSchema())
	if err != nil {
		t.Fatal(err)
	}
	version := func(age float64) *saintetiq.Tree {
		rel := data.NewRelation("r", data.PatientSchema())
		rel.MustInsert(data.Record{ID: "t1", Values: []data.Value{
			data.NumValue(age), data.StrValue("female"), data.NumValue(21), data.StrValue("influenza")}})
		rel.MustInsert(data.Record{ID: "t2", Values: []data.Value{
			data.NumValue(70), data.StrValue("male"), data.NumValue(21), data.StrValue("malaria")}})
		cs := cells.NewStore(mapper)
		cs.AddRelation(rel)
		tr := saintetiq.New(b, cfg)
		if err := tr.IncorporateStore(cs, 0); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	q, err := Reformulate(b, []string{"age"}, []Predicate{{Attr: "disease", Op: In, Strs: []string{"influenza"}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		st := summarystore.New(b, cfg, shards)
		st.SwapFrom(version(30))
		if n := st.SwapFrom(version(35)); n != 1 {
			t.Errorf("shards=%d: measure-only install swapped %d shards, want 1", shards, n)
		}
		sa, err := AnswerStore(st, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(sa.Answer.Classes) != 1 {
			t.Fatalf("shards=%d: %d classes, want 1", shards, len(sa.Answer.Classes))
		}
		if m := sa.Answer.Classes[0].Measures.Get("age"); m.Min != 35 || m.Max != 35 {
			t.Errorf("shards=%d: age measure min %v max %v, want the installed 35", shards, m.Min, m.Max)
		}
	}
}

// TestStoreQueryErrors: unknown labels/attributes surface as errors through
// the fan-out, same as the direct path.
func TestStoreQueryErrors(t *testing.T) {
	_, sharded, _ := storeFixture(t, 4)
	bad := Query{Select: []string{"age"}, Where: []Clause{{Attr: "nope", Labels: []string{"x"}}}}
	if _, err := AnswerStore(sharded, bad); err == nil {
		t.Error("unknown attribute accepted by AnswerStore")
	}
	if _, err := SelectStore(sharded, bad); err == nil {
		t.Error("unknown attribute accepted by SelectStore")
	}
	if _, err := TopKStore(sharded, bad, 5); err == nil {
		t.Error("unknown attribute accepted by TopKStore")
	}
}

// SelectStore walks the store's candidate shards and returns the union of
// the per-shard ZQ selections, in shard order. The returned nodes belong
// to the live shard trees: do not retain them while writers (merges,
// reconciliation swaps) may run concurrently — use AnswerStore or
// TopKStore, which finish their node reads under the shard locks, when the
// store is shared with writers.
func SelectStore(st *summarystore.Store, q Query) (*Selection, error) {
	// The compiled proposition is vocabulary-level: one compilation serves
	// every shard.
	c, err := compile(st.Vocab(), q)
	if err != nil {
		return nil, err
	}
	cands := candidateShards(st, c)
	sels := make([]*Selection, len(cands))
	err = par.ForEach(0, len(cands), func(k int) error {
		st.View(cands[k], func(t *saintetiq.Tree) {
			sels[k] = c.selectTree(t)
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged := &Selection{}
	for _, s := range sels {
		merged.Summaries = append(merged.Summaries, s.Summaries...)
		merged.Visited += s.Visited
	}
	return merged, nil
}

// TopKStore evaluates the query on every shard, grades each shard's
// selection under its read lock, and merges the graded results into one
// ranking (degree, then weight, then shard order). k <= 0 returns all.
func TopKStore(st *summarystore.Store, q Query, k int) ([]GradedSummary, error) {
	c, err := compile(st.Vocab(), q)
	if err != nil {
		return nil, err
	}
	cands := candidateShards(st, c)
	lists := make([][]GradedSummary, len(cands))
	err = par.ForEach(0, len(cands), func(k int) error {
		st.View(cands[k], func(t *saintetiq.Tree) {
			lists[k] = c.grade(c.selectTree(t))
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	var merged []GradedSummary
	for _, l := range lists {
		merged = append(merged, l...)
	}
	sort.SliceStable(merged, func(i, j int) bool {
		if merged[i].Degree != merged[j].Degree {
			return merged[i].Degree > merged[j].Degree
		}
		return merged[i].Weight > merged[j].Weight
	})
	if k > 0 && k < len(merged) {
		merged = merged[:k]
	}
	return merged, nil
}
