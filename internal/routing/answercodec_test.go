package routing

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/data"
	"p2psum/internal/query"
	"p2psum/internal/saintetiq"
	"p2psum/internal/summarystore"
	"p2psum/internal/wire"
)

// The answer codec: encodeAnswer writes the row totals, the answer's
// attribute table and then each class row in its ascending attribute
// order, and decodeAnswer carves the rows out of per-answer slabs in one
// pass, rejecting totals, tables and orders the encoder never writes — so
// decoding is canonical.

// answerStore feeds eight seeded patient peers into a 4-shard store.
func answerStore(tb testing.TB) *summarystore.Store {
	tb.Helper()
	b, cfg := bk.Medical(), saintetiq.DefaultConfig()
	mapper, err := cells.NewMapper(b, data.PatientSchema())
	if err != nil {
		tb.Fatal(err)
	}
	st := summarystore.New(b, cfg, 4)
	for p := 0; p < 8; p++ {
		cs := cells.NewStore(mapper)
		cs.AddRelation(data.NewPatientGenerator(int64(900+p), nil).Generate("r", 60))
		tr := saintetiq.New(b, cfg)
		if err := tr.IncorporateStore(cs, saintetiq.PeerID(p)); err != nil {
			tb.Fatal(err)
		}
		if err := st.Merge(tr); err != nil {
			tb.Fatal(err)
		}
	}
	return st
}

// fixtureQueries answer on answerStore with several classes; the first is
// the benchmark fixture (4 classes, 961 bytes).
var fixtureQueries = []query.Query{
	{Select: []string{"age", "sex", "bmi"}, Where: []query.Clause{
		{Attr: "bmi", Labels: []string{"underweight", "overweight"}},
		{Attr: "sex", Labels: []string{"female"}},
		{Attr: "disease", Labels: []string{"asthma", "hypertension", "measles"}},
	}},
	{Select: []string{"age", "age", "bmi"}, Where: []query.Clause{
		{Attr: "disease", Labels: []string{"malaria", "diabetes", "influenza", "tuberculosis", "hypertension"}},
		{Attr: "disease", Labels: []string{"anorexia", "influenza", "hypertension", "measles"}},
		{Attr: "bmi", Labels: []string{"underweight", "normal"}},
	}},
	{Where: []query.Clause{
		{Attr: "disease", Labels: []string{"anorexia", "malaria", "cholera", "hepatitis"}},
		{Attr: "age", Labels: []string{"adult"}},
		{Attr: "sex", Labels: []string{"male"}},
	}},
}

// fixtureAnswers evaluates fixtureQueries on a fresh store.
func fixtureAnswers(tb testing.TB) []*DataAnswer {
	tb.Helper()
	st := answerStore(tb)
	var out []*DataAnswer
	for _, q := range fixtureQueries {
		sa, err := query.AnswerStore(st, q)
		if err != nil {
			tb.Fatal(err)
		}
		if len(sa.Answer.Classes) < 2 {
			tb.Fatalf("fixture %s answers %d classes, want several", q, len(sa.Answer.Classes))
		}
		out = append(out, &DataAnswer{Peers: PeersOf(sa.Peers), Visited: sa.Visited, Answer: sa.Answer})
	}
	return out
}

func encodeDataAnswer(a *DataAnswer) []byte {
	e := new(wire.Enc)
	EncodeDataAnswer(e, a)
	return e.Bytes()
}

// BenchmarkEncodeDataAnswer writes the fixture answer into a pre-grown
// encoder. CI gates it at 0 allocs/op: the rows are written in order.
func BenchmarkEncodeDataAnswer(b *testing.B) {
	a := fixtureAnswers(b)[0]
	e := new(wire.Enc)
	EncodeDataAnswer(e, a)
	b.SetBytes(int64(e.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Truncate(0)
		EncodeDataAnswer(e, a)
	}
}

// BenchmarkDecodeDataAnswer decodes the fixture answer zero-copy, as the
// socket client does. CI gates its allocs/op at a constant: every class
// row is carved out of per-answer slabs, so the count does not grow with
// the classes.
func BenchmarkDecodeDataAnswer(b *testing.B) {
	body := encodeDataAnswer(fixtureAnswers(b)[0])
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeDataAnswer(wire.NewDecShared(body)); err != nil {
			b.Fatal(err)
		}
	}
}

// unorderedBodies encode answers whose rows repeat or reverse an
// attribute: the encoder writes rows as given, the decoder must refuse.
func unorderedBodies() [][]byte {
	labels := []string{"young"}
	m := cells.Measure{Weight: 1, Min: 20, Max: 20, Sum: 20, SumSq: 400}
	classes := []query.Class{
		{Interpretation: query.LabelSets{{Attr: "sex", Labels: labels}, {Attr: "age", Labels: labels}}},
		{Interpretation: query.LabelSets{{Attr: "age", Labels: labels}, {Attr: "age", Labels: labels}}},
		{Answers: query.LabelSets{{Attr: "bmi", Labels: labels}, {Attr: "age", Labels: labels}}},
		{Answers: query.LabelSets{{Attr: "age", Labels: labels}, {Attr: "age", Labels: nil}}},
		{Measures: query.AttrMeasures{{Attr: "bmi", Measure: m}, {Attr: "age", Measure: m}}},
		{Measures: query.AttrMeasures{{Attr: "age", Measure: m}, {Attr: "age", Measure: m}}},
	}
	var out [][]byte
	for _, c := range classes {
		a := &query.Answer{Query: query.Query{Select: []string{"age"}}, Classes: []query.Class{c}}
		out = append(out, encodeDataAnswer(&DataAnswer{Answer: a}))
	}
	return out
}

// TestDecodeRejectsUnorderedRows: a repeated or descending attribute in
// any class row fails the decode.
func TestDecodeRejectsUnorderedRows(t *testing.T) {
	for i, body := range unorderedBodies() {
		if _, err := DecodeDataAnswer(wire.NewDecShared(body)); !errors.Is(err, errAttrOrder) {
			t.Errorf("body %d: err %v, want the attribute order error", i, err)
		}
	}
}

// rawSet is one label-set row of a hand-written answer body: an index
// into the body's attribute table and the labels.
type rawSet struct {
	attr   uint64
	labels []string
}

// rawClass is one class of a hand-written answer body.
type rawClass struct {
	interp, answers []rawSet
	peers           []int64
	measures        []uint64 // attribute indexes
}

// rawAnswer writes a DataAnswer body field by field in the answer layout,
// with every count and index as given: no peers, visited 0, and the query
// "select age" declaring queryStrings strings.
type rawAnswer struct {
	queryStrings int
	totals       [4]int // label sets, labels, measures, peers
	attrs        []string
	classes      []rawClass
}

func (r rawAnswer) body() []byte {
	e := new(wire.Enc)
	e.Uvarint(0)
	e.Varint(0)
	e.Bool(true)
	e.Uvarint(uint64(r.queryStrings))
	e.Strings([]string{"age"})
	e.Uvarint(0)
	e.Uvarint(uint64(len(r.classes)))
	for _, t := range r.totals {
		e.Uvarint(uint64(t))
	}
	e.Strings(r.attrs)
	for _, c := range r.classes {
		for _, rows := range [][]rawSet{c.interp, c.answers} {
			e.Uvarint(uint64(len(rows)))
			for _, row := range rows {
				e.Uvarint(row.attr)
				e.Strings(row.labels)
			}
		}
		e.Float64Fixed(2)
		e.Uvarint(uint64(len(c.peers)))
		for _, p := range c.peers {
			e.Varint(p)
		}
		e.Uvarint(uint64(len(c.measures)))
		for _, m := range c.measures {
			e.Uvarint(m)
			for _, f := range []float64{2, 20, 30, 50, 1300} {
				e.Float64Fixed(f)
			}
		}
	}
	return e.Bytes()
}

// wellFormed is a rawAnswer the encoder writes: one class over the table
// (age, sex) with an interpretation row on sex, an answers row and a
// measure on age, and one peer.
func wellFormed() rawAnswer {
	return rawAnswer{
		queryStrings: 1,
		totals:       [4]int{2, 2, 1, 1},
		attrs:        []string{"age", "sex"},
		classes: []rawClass{{
			interp:   []rawSet{{1, []string{"female"}}},
			answers:  []rawSet{{0, []string{"young"}}},
			peers:    []int64{3},
			measures: []uint64{0},
		}},
	}
}

// malformedAnswers are bodies that each get one thing wrong, with the
// error the decoder must refuse them with.
func malformedAnswers() map[string]struct {
	body []byte
	want error
} {
	cases := map[string]struct {
		body []byte
		want error
	}{}
	add := func(name string, want error, edit func(r *rawAnswer)) {
		r := wellFormed()
		r.classes = []rawClass{wellFormed().classes[0]}
		edit(&r)
		cases[name] = struct {
			body []byte
			want error
		}{r.body(), want}
	}
	for i, total := range []string{"label sets", "labels", "measures", "peers"} {
		add(total+" total too high", errTotals, func(r *rawAnswer) { r.totals[i]++ })
		add(total+" total too low", errTotals, func(r *rawAnswer) { r.totals[i]-- })
	}
	add("query string total too high", errTotals, func(r *rawAnswer) { r.queryStrings = 2 })
	add("query string total too low", errTotals, func(r *rawAnswer) { r.queryStrings = 0 })
	add("table unsorted", errAttrTable, func(r *rawAnswer) {
		r.attrs = []string{"sex", "age"}
		r.classes[0] = rawClass{
			interp:   []rawSet{{0, []string{"female"}}},
			answers:  []rawSet{{1, []string{"young"}}},
			peers:    []int64{3},
			measures: []uint64{1},
		}
	})
	add("table duplicate", errAttrTable, func(r *rawAnswer) {
		r.attrs = []string{"age", "age", "sex"}
		r.classes[0].interp[0].attr = 2
	})
	add("table entry unused", errAttrUnused, func(r *rawAnswer) {
		r.attrs = []string{"age", "bmi", "sex"}
		r.classes[0].interp[0].attr = 2
	})
	add("row index out of range", errAttrIndex, func(r *rawAnswer) { r.classes[0].interp[0].attr = 2 })
	add("measure index out of range", errAttrIndex, func(r *rawAnswer) { r.classes[0].measures[0] = 2 })
	add("row indexes repeat", errAttrOrder, func(r *rawAnswer) {
		r.totals[0], r.totals[1] = 3, 3
		r.classes[0].answers = append(r.classes[0].answers, rawSet{0, []string{"old"}})
	})
	body := wellFormed().body()
	cases["fixed-width float truncated"] = struct {
		body []byte
		want error
	}{body[:len(body)-3], wire.ErrTruncated}
	return cases
}

// TestDecodeRejectsMalformedAnswer: the hand-written well-formed body is
// what the encoder writes, and each body that gets a total, the
// attribute table, an index, a fixed-width float or the query's string
// total wrong is refused with its error.
func TestDecodeRejectsMalformedAnswer(t *testing.T) {
	good := wellFormed().body()
	a, err := DecodeDataAnswer(wire.NewDecShared(good))
	if err != nil {
		t.Fatalf("well-formed body: %v", err)
	}
	if !bytes.Equal(encodeDataAnswer(a), good) {
		t.Fatal("the well-formed body is not what the encoder writes")
	}
	for name, c := range malformedAnswers() {
		if _, err := DecodeDataAnswer(wire.NewDecShared(c.body)); !errors.Is(err, c.want) {
			t.Errorf("%s: err %v, want %v", name, err, c.want)
		}
	}
	// A standalone query whose string total is wrong fails the same way.
	for _, strs := range []uint64{0, 2, 4} {
		e := new(wire.Enc)
		e.Uvarint(strs)
		e.Strings([]string{"age"})
		e.Uvarint(1)
		e.String("sex")
		e.Strings([]string{"female", "male"})
		d := wire.NewDecShared(e.Bytes())
		if q := DecodeFlexQuery(d); !errors.Is(d.Err(), errTotals) || q.Select != nil {
			t.Errorf("query declaring %d of 3 strings: err %v, query %v", strs, d.Err(), q)
		}
	}
}

// TestDecodeCarvesSlabs: a decoded answer re-encodes to its bytes, its
// rows are exact-capacity windows, and its strings are views into the
// body when the decoder is shared.
func TestDecodeCarvesSlabs(t *testing.T) {
	for _, a := range fixtureAnswers(t) {
		body := encodeDataAnswer(a)
		got, err := DecodeDataAnswer(wire.NewDecShared(body))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeDataAnswer(got), body) {
			t.Fatalf("%s: decode and re-encode changed the bytes", a.Answer.Query)
		}
		for i, c := range got.Answer.Classes {
			if cap(c.Interpretation) != len(c.Interpretation) || cap(c.Answers) != len(c.Answers) ||
				cap(c.Measures) != len(c.Measures) || cap(c.Peers) != len(c.Peers) {
				t.Fatalf("%s: class %d has a row wider than its length", a.Answer.Query, i)
			}
		}
		// Clobbering the body shows through the views.
		attr := strings.Clone(got.Answer.Classes[0].Interpretation[0].Attr)
		for i := range body {
			body[i] = 'x'
		}
		if got.Answer.Classes[0].Interpretation[0].Attr == attr {
			t.Fatal("a shared decode copied its strings")
		}
	}
}

// FuzzDecodeDataAnswer: the answer decoder never panics, the copying and
// the shared decoder agree, and every body they accept re-encodes to
// exactly its bytes.
func FuzzDecodeDataAnswer(f *testing.F) {
	for _, a := range fixtureAnswers(f) {
		body := encodeDataAnswer(a)
		f.Add(body)
		f.Add(body[:len(body)/2])
	}
	for _, body := range unorderedBodies() {
		f.Add(body)
	}
	for _, c := range malformedAnswers() {
		f.Add(c.body)
	}
	f.Add(wellFormed().body())
	f.Add(encodeDataAnswer(&DataAnswer{}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		decode := func(d *wire.Dec) (*DataAnswer, error) {
			a, err := DecodeDataAnswer(d)
			if err != nil {
				return nil, err
			}
			return a, d.Done()
		}
		owned, errC := decode(wire.NewDec(body))
		shared, errS := decode(wire.NewDecShared(body))
		if (errC == nil) != (errS == nil) {
			t.Fatalf("decoders disagree: copy err=%v, shared err=%v", errC, errS)
		}
		if errC != nil {
			return
		}
		if got := encodeDataAnswer(owned); !bytes.Equal(got, body) {
			t.Fatalf("accepted body re-encodes differently:\n got % x\nwant % x", got, body)
		}
		if got := encodeDataAnswer(shared); !bytes.Equal(got, body) {
			t.Fatal("shared decode re-encodes differently")
		}
	})
}

// FuzzDecodeFlexQuery: the query decoder never panics, the copying and the
// shared decoder agree, and every body they accept re-encodes to exactly
// its bytes — its leading string total included.
func FuzzDecodeFlexQuery(f *testing.F) {
	for _, q := range append(fixtureQueries, sampleQuery(), query.Query{}) {
		e := new(wire.Enc)
		EncodeFlexQuery(e, q)
		f.Add(e.Bytes())
		body := slices.Clone(e.Bytes())
		body[0]++ // one string more than the lists hold
		f.Add(body)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		decode := func(d *wire.Dec) (query.Query, error) {
			q := DecodeFlexQuery(d)
			return q, d.Done()
		}
		owned, errC := decode(wire.NewDec(body))
		shared, errS := decode(wire.NewDecShared(body))
		if (errC == nil) != (errS == nil) {
			t.Fatalf("decoders disagree: copy err=%v, shared err=%v", errC, errS)
		}
		if errC != nil {
			return
		}
		for _, q := range []query.Query{owned, shared} {
			e := new(wire.Enc)
			EncodeFlexQuery(e, q)
			if !bytes.Equal(e.Bytes(), body) {
				t.Fatalf("accepted body re-encodes differently:\n got % x\nwant % x", e.Bytes(), body)
			}
		}
	})
}
