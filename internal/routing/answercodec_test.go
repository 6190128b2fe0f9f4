package routing

import (
	"bytes"
	"errors"
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

// The answer codec: encodeAnswer writes each class row in its ascending
// attribute order, and decodeAnswer carves the rows out of per-answer
// slabs, rejecting any other order — so decoding is canonical.

// answerStore feeds eight seeded patient peers into a 4-shard store.
func answerStore(tb testing.TB) summarystore.Store {
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
// the benchmark fixture (4 classes, 982 bytes).
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
