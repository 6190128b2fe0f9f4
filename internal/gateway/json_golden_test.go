package gateway

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"p2psum/internal/p2p"
	"p2psum/internal/query"
	"p2psum/internal/routing"
)

// The POST /query body is a public format: the JSON an answer renders to
// must not move when the answer's in-memory form does. Both graphs an
// entry serves are pinned — the one a miss evaluates, and the one an
// in-process hit decodes back from a wire-served entry's body.

// storeBackend answers from its store, like a summary peer would.
type storeBackend struct{ fakeBackend }

func (s *storeBackend) Execute(origin p2p.NodeID, q query.Query) (*routing.DataAnswer, error) {
	sa, err := query.AnswerStore(s.st, q)
	if err != nil {
		return nil, err
	}
	return &routing.DataAnswer{Peers: routing.PeersOf(sa.Peers), Visited: sa.Visited, Answer: sa.Answer}, nil
}

func postQuery(t *testing.T, url, body string) string {
	t.Helper()
	resp, err := http.Post(url+"/query", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	return string(out)
}

func TestHTTPAnswerGolden(t *testing.T) {
	g := New(Config{Rate: 1e9}, &storeBackend{fakeBackend{st: newShardedStore(t)}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go g.ServeWire(ln)
	srv := httptest.NewServer(g.HTTPHandler())
	defer srv.Close()
	wc := dialTest(t, ln.Addr().String())

	for _, tc := range []struct {
		name string
		wire *query.Query // asked over the socket first, so the post hits its body
		body string
		want string
	}{
		{name: "miss", body: `{"origin":3,"select":["bmi","age","bmi"],"where":[{"attr":"disease","labels":["malaria","anorexia"]}]}`,
			want: `{"hit":false,"peers":[1,2],"visited":2,"answer":{"Query":{"Select":["bmi","age","bmi"],"Where":[{"Attr":"disease","Labels":["anorexia","malaria"]}]},"Classes":[{"Interpretation":{"disease":["anorexia"]},"Answers":{"age":["young"],"bmi":["normal"]},"Weight":2,"Peers":[1],"Measures":{"age":{"Weight":2,"Min":15,"Max":18,"Sum":33,"SumSq":549},"bmi":{"Weight":4,"Min":20,"Max":20,"Sum":80,"SumSq":1600}}},{"Interpretation":{"disease":["malaria"]},"Answers":{"age":["adult"],"bmi":["normal"]},"Weight":2,"Peers":[2],"Measures":{"age":{"Weight":2,"Min":30,"Max":40,"Sum":70,"SumSq":2500},"bmi":{"Weight":4,"Min":20,"Max":20,"Sum":80,"SumSq":1600}}}]}}
`},
		{name: "miss-no-select", body: `{"origin":3,"where":[{"attr":"disease","labels":["anorexia"]},{"attr":"disease","labels":["anorexia","malaria"]}]}`,
			want: `{"hit":false,"peers":[1],"visited":1,"answer":{"Query":{"Select":null,"Where":[{"Attr":"disease","Labels":["anorexia"]},{"Attr":"disease","Labels":["anorexia","malaria"]}]},"Classes":[{"Interpretation":{"disease":["anorexia"]},"Answers":{},"Weight":2,"Peers":[1],"Measures":{}}]}}
`},
		{name: "wire", wire: &query.Query{Select: []string{"age"}, Where: []query.Clause{
			{Attr: "age", Labels: []string{"adult", "young"}},
			{Attr: "disease", Labels: []string{"anorexia", "malaria"}},
		}}, body: `{"origin":3,"select":["age"],"where":[{"attr":"age","labels":["young","adult"]},{"attr":"disease","labels":["anorexia","malaria"]}]}`,
			want: `{"hit":true,"peers":[1,2],"visited":2,"answer":{"Query":{"Select":["age"],"Where":[{"Attr":"age","Labels":["adult","young"]},{"Attr":"disease","Labels":["anorexia","malaria"]}]},"Classes":[{"Interpretation":{"age":["adult"],"disease":["malaria"]},"Answers":{"age":["adult"]},"Weight":2,"Peers":[2],"Measures":{"age":{"Weight":2,"Min":30,"Max":40,"Sum":70,"SumSq":2500}}},{"Interpretation":{"age":["young"],"disease":["anorexia"]},"Answers":{"age":["young"]},"Weight":2,"Peers":[1],"Measures":{"age":{"Weight":2,"Min":15,"Max":18,"Sum":33,"SumSq":549}}}]}}
`},
		{name: "wire-no-select", wire: &query.Query{Where: []query.Clause{
			{Attr: "sex", Labels: []string{"female"}},
		}}, body: `{"origin":3,"where":[{"attr":"sex","labels":["female"]}]}`,
			want: `{"hit":true,"peers":[1,2],"visited":2,"answer":{"Query":{"Select":[],"Where":[{"Attr":"sex","Labels":["female"]}]},"Classes":[{"Interpretation":{"sex":["female"]},"Answers":null,"Weight":4,"Peers":[1,2],"Measures":null}]}}
`},
	} {
		if tc.wire != nil {
			if _, hit, err := wc.Ask(3, *tc.wire); err != nil || hit {
				t.Fatalf("%s: wire ask: hit=%v err=%v, want a clean miss", tc.name, hit, err)
			}
		}
		if got := postQuery(t, srv.URL, tc.body); got != tc.want {
			t.Errorf("%s: body\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}
