package gateway

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"p2psum/internal/p2p"
	"p2psum/internal/query"
	"p2psum/internal/routing"
	"p2psum/internal/wire"
)

// The socket frontend speaks the repo's wire codec: every unit on the
// stream is a 4-byte big-endian length followed by one wire.Frame (the
// same unit layout as the TCP transport), and the three gateway message
// types are registered payload codecs like any protocol message. A session
// is one hello exchange followed by pipelined query/result frames
// correlated by QID; responses replay a cached entry's pre-encoded bytes,
// so a cache hit costs no answer re-encoding. The client reads each result
// frame into a body of its own and decodes the answer as views into it:
// its strings are never copied, and the body lives as long as the answer.

// Gateway message types.
const (
	// MsgGwHello opens a session (client -> server) and acknowledges it
	// (server -> client).
	MsgGwHello = "gw-hello"
	// MsgGwQuery carries one client query with its correlation id.
	MsgGwQuery = "gw-query"
	// MsgGwResult answers one query: hit flag, error, data answer.
	MsgGwResult = "gw-result"
)

// maxGwFrame bounds a frame read off a gateway socket (hostile-length
// guard, same role as TCPConfig.MaxFrame).
const maxGwFrame = 1 << 20

// HelloPayload names a session endpoint.
type HelloPayload struct {
	// Name identifies the peer for logs ("p2psum-gateway" server-side).
	Name string
}

// ClientQueryPayload is one query posed over a gateway session.
type ClientQueryPayload struct {
	// QID correlates the result frame with this query on the session.
	QID uint64
	// Origin is the overlay node the query is posed at (picks the domain).
	Origin p2p.NodeID
	// Query is the flexible query.
	Query query.Query
}

// ResultPayload answers one ClientQueryPayload.
type ResultPayload struct {
	// QID echoes the query's correlation id.
	QID uint64
	// Hit reports whether the answer came from a fresh cache entry.
	Hit bool
	// Err is the failure, "" on success.
	Err string
	// Answer is the data-level answer (empty, not nil, on failure).
	Answer *routing.DataAnswer
}

func init() {
	wire.Register(MsgGwHello, wire.PayloadCodec{Encode: encodeGwHello, Decode: decodeGwHello})
	wire.Register(MsgGwQuery, wire.PayloadCodec{Encode: encodeGwQuery, Decode: decodeGwQuery})
	wire.Register(MsgGwResult, wire.PayloadCodec{Encode: encodeGwResult, Decode: decodeGwResult})
}

func encodeGwHello(e *wire.Enc, payload any) error {
	p, ok := payload.(HelloPayload)
	if !ok {
		return fmt.Errorf("gateway: %s codec got %T", MsgGwHello, payload)
	}
	e.String(p.Name)
	return nil
}

func decodeGwHello(data []byte) (any, error) {
	d := wire.NewDec(data)
	p := HelloPayload{Name: d.String()}
	return p, d.Done()
}

func encodeGwQuery(e *wire.Enc, payload any) error {
	p, ok := payload.(ClientQueryPayload)
	if !ok {
		return fmt.Errorf("gateway: %s codec got %T", MsgGwQuery, payload)
	}
	e.Uvarint(p.QID)
	e.Varint(int64(p.Origin))
	routing.EncodeFlexQuery(e, p.Query)
	return nil
}

func decodeGwQuery(data []byte) (any, error) {
	d := wire.NewDec(data)
	p := ClientQueryPayload{QID: d.Uvarint(), Origin: p2p.NodeID(d.Varint()), Query: routing.DecodeFlexQuery(d)}
	return p, d.Done()
}

func encodeGwResult(e *wire.Enc, payload any) error {
	p, ok := payload.(ResultPayload)
	if !ok {
		return fmt.Errorf("gateway: %s codec got %T", MsgGwResult, payload)
	}
	e.Uvarint(p.QID)
	e.Bool(p.Hit)
	e.String(p.Err)
	a := p.Answer
	if a == nil {
		a = &routing.DataAnswer{}
	}
	routing.EncodeDataAnswer(e, a)
	return nil
}

func decodeGwResult(data []byte) (any, error) {
	p, err := decodeResult(wire.NewDec(data))
	if err != nil {
		return nil, err
	}
	return p, nil
}

// decodeResult reads a ResultPayload; on a shared Dec its strings are
// views into the buffer.
func decodeResult(d *wire.Dec) (ResultPayload, error) {
	p := ResultPayload{QID: d.Uvarint(), Hit: d.Bool(), Err: d.String()}
	a, err := routing.DecodeDataAnswer(d)
	if err != nil {
		return ResultPayload{}, err
	}
	p.Answer = a
	return p, d.Done()
}

// readFrameUnit reads one length-prefixed frame off br into body, reusing
// it when it is large enough, and decodes it borrowing from body: the
// caller must finish with the payload before reusing body, or pass a
// fresh body per frame to keep views into it.
func readFrameUnit(br *bufio.Reader, hdr []byte, body *[]byte) (*wire.Frame, error) {
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n < 1 || n > maxGwFrame {
		return nil, fmt.Errorf("gateway: frame length %d out of range", n)
	}
	if cap(*body) < n {
		*body = make([]byte, n)
	}
	*body = (*body)[:n]
	if _, err := io.ReadFull(br, *body); err != nil {
		return nil, err
	}
	return wire.DecodeFrameShared(*body)
}

// writeFrameUnit appends a length-prefixed frame built from a pooled
// payload encoder and writes it under wmu.
func writeFrameUnit(wmu *sync.Mutex, w io.Writer, typ string, fill func(pe *wire.Enc)) error {
	pe := wire.GetEnc()
	fill(pe)
	e := wire.GetEnc()
	off := e.Skip(4)
	f := wire.Frame{Type: typ, HasPayload: true}
	f.AppendHeaderTo(e, pe.Len())
	e.Raw(pe.Bytes())
	pe.Release()
	e.FillUint32(off, uint32(e.Len()-4))
	wmu.Lock()
	_, err := w.Write(e.Bytes())
	wmu.Unlock()
	e.Release()
	return err
}

// ServeWire accepts gateway sessions on ln until the listener closes.
// Every connection is one client session: its own token bucket, its own
// fair-queue seat.
func (g *Gateway) ServeWire(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go g.serveConn(conn)
	}
}

// serveConn drives one session: hello handshake, then pipelined queries —
// each query runs in its own goroutine so a slow upstream never blocks
// the next read, and responses interleave under the write mutex.
func (g *Gateway) serveConn(conn net.Conn) {
	defer conn.Close()
	c := g.Connect()
	defer c.Close()

	br := bufio.NewReader(conn)
	hdr := make([]byte, 4)
	var body []byte
	var wmu sync.Mutex

	f, err := readFrameUnit(br, hdr, &body)
	if err != nil || f.Type != MsgGwHello {
		return // not a gateway client
	}
	if err := writeFrameUnit(&wmu, conn, MsgGwHello, func(pe *wire.Enc) {
		pe.String("p2psum-gateway")
	}); err != nil {
		return
	}

	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		f, err := readFrameUnit(br, hdr, &body)
		if err != nil {
			return
		}
		if f.Type != MsgGwQuery || !f.HasPayload {
			continue
		}
		codec, ok := wire.Lookup(MsgGwQuery)
		if !ok {
			return
		}
		payload, err := codec.Decode(f.Payload)
		if err != nil {
			return // malformed query frame: drop the session
		}
		pl := payload.(ClientQueryPayload)
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.answer(c, &wmu, conn, pl)
		}()
	}
}

// answer serves one query frame and writes its result. Cache hits replay
// the entry's pre-encoded bytes.
func (g *Gateway) answer(c *Client, wmu *sync.Mutex, conn net.Conn, pl ClientQueryPayload) {
	e, hit, err := c.do(pl.Origin, pl.Query)
	_ = writeFrameUnit(wmu, conn, MsgGwResult, func(pe *wire.Enc) {
		pe.Uvarint(pl.QID)
		pe.Bool(hit)
		if err != nil {
			pe.String(err.Error())
			routing.EncodeDataAnswer(pe, &routing.DataAnswer{})
			return
		}
		pe.Raw(e.encoded()) // "" error + DataAnswer, encoded once per entry
	})
}

// WireClient is the client half of a gateway session: one long-lived
// connection issuing queries sequentially (Ask serializes; open several
// clients for concurrency — each is its own admission identity anyway).
type WireClient struct {
	conn net.Conn
	br   *bufio.Reader
	// Timeout bounds each Ask round-trip (0: no deadline).
	Timeout time.Duration

	mu  sync.Mutex
	qid uint64
	hdr []byte
}

// DialWire opens a gateway session to addr and performs the hello
// handshake, announcing name.
func DialWire(addr, name string) (*WireClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	w := &WireClient{conn: conn, br: bufio.NewReader(conn), hdr: make([]byte, 4)}
	var wmu sync.Mutex
	if err := writeFrameUnit(&wmu, conn, MsgGwHello, func(pe *wire.Enc) {
		pe.String(name)
	}); err != nil {
		conn.Close()
		return nil, err
	}
	var body []byte
	f, err := readFrameUnit(w.br, w.hdr, &body)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("gateway: hello: %w", err)
	}
	if f.Type != MsgGwHello {
		conn.Close()
		return nil, fmt.Errorf("gateway: hello got %q", f.Type)
	}
	return w, nil
}

// Ask poses q at origin and blocks for the result. hit reports whether
// the gateway served it from cache. Each result frame is read into a body
// of its own, and the answer's strings are views into it: decoding copies
// no string, and a later Ask never changes an answer already returned.
func (w *WireClient) Ask(origin p2p.NodeID, q query.Query) (*routing.DataAnswer, bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.qid++
	qid := w.qid
	if w.Timeout > 0 {
		if err := w.conn.SetDeadline(time.Now().Add(w.Timeout)); err != nil {
			return nil, false, err
		}
	}
	var wmu sync.Mutex
	if err := writeFrameUnit(&wmu, w.conn, MsgGwQuery, func(pe *wire.Enc) {
		pe.Uvarint(qid)
		pe.Varint(int64(origin))
		routing.EncodeFlexQuery(pe, q)
	}); err != nil {
		return nil, false, err
	}
	for {
		var body []byte
		f, err := readFrameUnit(w.br, w.hdr, &body)
		if err != nil {
			return nil, false, err
		}
		if f.Type != MsgGwResult || !f.HasPayload {
			continue
		}
		pl, err := decodeResult(wire.NewDecShared(f.Payload))
		if err != nil {
			return nil, false, err
		}
		if pl.QID != qid {
			continue // a response the session no longer waits on
		}
		if pl.Err != "" {
			return nil, pl.Hit, errors.New(pl.Err)
		}
		return pl.Answer, pl.Hit, nil
	}
}

// Close tears the session down.
func (w *WireClient) Close() error { return w.conn.Close() }

// httpWhere is one WHERE clause of the HTTP query body.
type httpWhere struct {
	Attr   string   `json:"attr"`
	Labels []string `json:"labels"`
}

// httpQuery is the POST /query request body.
type httpQuery struct {
	Origin int64       `json:"origin"`
	Select []string    `json:"select"`
	Where  []httpWhere `json:"where"`
}

// httpResult is the POST /query response body.
type httpResult struct {
	Hit     bool          `json:"hit"`
	Peers   []p2p.NodeID  `json:"peers"`
	Visited int           `json:"visited"`
	Answer  *query.Answer `json:"answer,omitempty"`
}

// HTTPHandler returns the thin JSON adapter: POST /query evaluates a
// query (admission identity = the remote host, so one busy host cannot
// starve the others), GET /stats returns the counter snapshot.
func (g *Gateway) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", g.serveHTTPQuery)
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(g.Snapshot())
	})
	return mux
}

func (g *Gateway) serveHTTPQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, `{"error":"POST only"}`, http.StatusMethodNotAllowed)
		return
	}
	var req httpQuery
	if err := json.NewDecoder(io.LimitReader(r.Body, maxGwFrame)).Decode(&req); err != nil {
		http.Error(w, `{"error":"bad request body"}`, http.StatusBadRequest)
		return
	}
	q := query.Query{Select: req.Select}
	for _, c := range req.Where {
		q.Where = append(q.Where, query.Clause{Attr: c.Attr, Labels: c.Labels})
	}
	// Canonicalize at the edge: JSON spellings that reorder clauses or
	// labels land on one cache key.
	q = routing.NormalizeQuery(q)
	host := r.RemoteAddr
	if h, _, err := net.SplitHostPort(host); err == nil {
		host = h
	}
	ans, hit, err := g.Session(host).Query(p2p.NodeID(req.Origin), q)
	if err != nil {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrThrottled), errors.Is(err, ErrOverloaded):
			code = http.StatusTooManyRequests
		case errors.Is(err, ErrQueueTimeout):
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(httpResult{Hit: hit, Peers: ans.Peers, Visited: ans.Visited, Answer: ans.Answer})
}
