package routing

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"p2psum/internal/cells"
	"p2psum/internal/core"
	"p2psum/internal/p2p"
	"p2psum/internal/query"
	"p2psum/internal/saintetiq"
	"p2psum/internal/wire"
)

// Remote query routing: the data-level §5.2 services evaluated by sending
// the query to the origin's summary peer as a real protocol message — the
// path a deployed overlay needs when the summary peer lives in another
// process (p2p.TCPTransport). RouteData remains the in-process fast path;
// QueryService is the message-borne one. Both payloads are registered with
// the wire codec layer, so queries and their approximate answers are
// byte-accounted exactly like every other protocol message.

// QueryPayload ships a flexible query to a summary peer.
type QueryPayload struct {
	// QID correlates the response with the asking driver.
	QID uint64
	// Query is the reformulated flexible query (§5.1).
	Query query.Query
}

// QueryResponsePayload carries a domain's answer back to the originator.
type QueryResponsePayload struct {
	// QID echoes the request's correlation id.
	QID uint64
	// Err is the evaluation failure, if any ("" on success).
	Err string
	// Peers is PQ: the peers the global summary designates (§5.2.1).
	Peers []p2p.NodeID
	// Visited is the number of summary nodes the selection explored.
	Visited int
	// Answer is the approximate answer computed in the summary domain
	// (§5.2.2); nil when Err is set.
	Answer *query.Answer
}

func init() {
	wire.Register(MsgQuery, wire.PayloadCodec{Encode: encodeQuery, Decode: decodeQuery})
	wire.Register(MsgQueryResponse, wire.PayloadCodec{Encode: encodeQueryResponse, Decode: decodeQueryResponse})
}

// EncodeFlexQuery appends a flexible query's wire form — shared by the
// MsgQuery payload codec and the gateway's client framing.
func EncodeFlexQuery(e *wire.Enc, q query.Query) {
	e.Strings(q.Select)
	e.Uvarint(uint64(len(q.Where)))
	for _, c := range q.Where {
		e.String(c.Attr)
		e.Strings(c.Labels)
	}
}

// DecodeFlexQuery reads the form EncodeFlexQuery writes; on malformed
// input it returns the zero query and leaves the error on d. A dry run
// over a copy of d sizes one slab that every label list is carved from.
func DecodeFlexQuery(d *wire.Dec) query.Query {
	scan := *d
	strs := skipStrings(&scan)
	n := scan.Count()
	for i := 0; i < n; i++ {
		scan.SkipString()
		strs += skipStrings(&scan)
	}
	if scan.Err() != nil {
		*d = scan
		return query.Query{}
	}
	var q query.Query
	slab := make([]string, 0, strs)
	q.Select, slab = carveStrings(d, slab)
	if n := d.Count(); n > 0 {
		q.Where = make([]query.Clause, n)
		for i := range q.Where {
			q.Where[i].Attr = d.String()
			q.Where[i].Labels, slab = carveStrings(d, slab)
		}
	}
	return q
}

// skipStrings reads past a counted string list and returns its length.
func skipStrings(d *wire.Dec) int {
	n := d.Count()
	for i := n; i > 0; i-- {
		d.SkipString()
	}
	return n
}

// carveStrings reads a counted string list onto the end of slab and
// returns it as an exact-capacity window (non-nil when slab is), with the
// grown slab.
func carveStrings(d *wire.Dec, slab []string) ([]string, []string) {
	lo := len(slab)
	for n := d.Count(); n > 0; n-- {
		slab = append(slab, d.String())
	}
	return slab[lo:len(slab):len(slab)], slab
}

func encodeQuery(e *wire.Enc, payload any) error {
	p, ok := payload.(QueryPayload)
	if !ok {
		return fmt.Errorf("routing: %s codec got %T", MsgQuery, payload)
	}
	e.Uvarint(p.QID)
	EncodeFlexQuery(e, p.Query)
	return nil
}

func decodeQuery(data []byte) (any, error) {
	d := wire.NewDec(data)
	p := QueryPayload{QID: d.Uvarint(), Query: DecodeFlexQuery(d)}
	return p, d.Done()
}

// encodeLabelSets writes a class's label sets in their ascending attribute
// order, so equal payloads encode to equal bytes.
func encodeLabelSets(e *wire.Enc, sets query.LabelSets) {
	e.Uvarint(uint64(len(sets)))
	for _, ls := range sets {
		e.String(ls.Attr)
		e.Strings(ls.Labels)
	}
}

func encodeAnswer(e *wire.Enc, a *query.Answer) {
	if a == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	EncodeFlexQuery(e, a.Query)
	e.Uvarint(uint64(len(a.Classes)))
	for _, c := range a.Classes {
		encodeLabelSets(e, c.Interpretation)
		encodeLabelSets(e, c.Answers)
		e.Float64(c.Weight)
		e.Uvarint(uint64(len(c.Peers)))
		for _, p := range c.Peers {
			e.Varint(int64(p))
		}
		e.Uvarint(uint64(len(c.Measures)))
		for _, am := range c.Measures {
			m := am.Measure
			e.String(am.Attr)
			e.Float64(m.Weight)
			e.Float64(m.Min)
			e.Float64(m.Max)
			e.Float64(m.Sum)
			e.Float64(m.SumSq)
		}
	}
}

// errAttrOrder rejects a class row whose attributes are not strictly
// ascending: encodeAnswer never writes one, so decoding stays canonical.
var errAttrOrder = errors.New("routing: answer attributes not strictly ascending")

// answerSlabs are the backing arrays every class row of one decoded answer
// is carved out of, each sized exactly by a dry run over the encoding.
type answerSlabs struct {
	sets     []query.LabelSet
	labels   []string
	measures []query.AttrMeasure
	peers    []saintetiq.PeerID
}

// size reads n encoded classes off d, counting what they hold, and
// allocates the slabs. d is a copy: the dry run reads no string.
func (s *answerSlabs) size(d wire.Dec, n int) error {
	var sets, labels, measures, peers int
	for ; n > 0 && d.Err() == nil; n-- {
		for k := 0; k < 2; k++ { // interpretation, answers
			for i := d.Count(); i > 0; i-- {
				d.SkipString()
				sets, labels = sets+1, labels+skipStrings(&d)
			}
		}
		d.Float64()
		m := d.Count()
		peers += m
		for ; m > 0; m-- {
			d.Varint()
		}
		m = d.Count()
		measures += m
		for ; m > 0; m-- {
			d.SkipString()
			for f := 0; f < 5; f++ {
				d.Float64()
			}
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	s.sets = make([]query.LabelSet, 0, sets)
	s.labels = make([]string, 0, labels)
	s.measures = make([]query.AttrMeasure, 0, measures)
	s.peers = make([]saintetiq.PeerID, 0, peers)
	return nil
}

// labelSets carves one class's label sets out of the slabs; nil when the
// encoding holds none.
func (s *answerSlabs) labelSets(d *wire.Dec) (query.LabelSets, error) {
	n := d.Count()
	if n == 0 {
		return nil, nil
	}
	lo := len(s.sets)
	for i := 0; i < n; i++ {
		ls := query.LabelSet{Attr: d.String()}
		if i > 0 && ls.Attr <= s.sets[len(s.sets)-1].Attr {
			return nil, errAttrOrder
		}
		ls.Labels, s.labels = carveStrings(d, s.labels)
		s.sets = append(s.sets, ls)
	}
	return s.sets[lo:len(s.sets):len(s.sets)], nil
}

// class decodes one class into c, carving its rows out of the slabs.
func (s *answerSlabs) class(d *wire.Dec, c *query.Class) (err error) {
	if c.Interpretation, err = s.labelSets(d); err != nil {
		return err
	}
	if c.Answers, err = s.labelSets(d); err != nil {
		return err
	}
	c.Weight = d.Float64()
	if n := d.Count(); n > 0 {
		lo := len(s.peers)
		for ; n > 0; n-- {
			s.peers = append(s.peers, saintetiq.PeerID(d.Varint()))
		}
		c.Peers = s.peers[lo:len(s.peers):len(s.peers)]
	}
	n := d.Count()
	if n == 0 {
		return nil
	}
	lo := len(s.measures)
	for i := 0; i < n; i++ {
		attr := d.String()
		if i > 0 && attr <= s.measures[len(s.measures)-1].Attr {
			return errAttrOrder
		}
		s.measures = append(s.measures, query.AttrMeasure{Attr: attr, Measure: cells.Measure{
			Weight: d.Float64(),
			Min:    d.Float64(),
			Max:    d.Float64(),
			Sum:    d.Float64(),
			SumSq:  d.Float64(),
		}})
	}
	c.Measures = s.measures[lo:len(s.measures):len(s.measures)]
	return nil
}

// decodeAnswer reads the form encodeAnswer writes. Its strings are views
// into the buffer when d is shared.
func decodeAnswer(d *wire.Dec) (*query.Answer, error) {
	if !d.Bool() {
		return nil, d.Err()
	}
	a := &query.Answer{Query: DecodeFlexQuery(d)}
	n := d.Count()
	if n == 0 {
		return a, d.Err()
	}
	var s answerSlabs
	if err := s.size(*d, n); err != nil {
		return nil, err
	}
	a.Classes = make([]query.Class, n)
	for i := range a.Classes {
		if err := s.class(d, &a.Classes[i]); err != nil {
			return nil, err
		}
	}
	return a, d.Err()
}

// EncodeDataAnswer appends a DataAnswer's wire form — peers, visited
// count, approximate answer — the same layout the MsgQueryResponse payload
// carries after its QID and error fields. The gateway encodes a cached
// entry once through this and replays the bytes on every hit.
func EncodeDataAnswer(e *wire.Enc, a *DataAnswer) {
	e.Uvarint(uint64(len(a.Peers)))
	for _, id := range a.Peers {
		e.Varint(int64(id))
	}
	e.Varint(int64(a.Visited))
	encodeAnswer(e, a.Answer)
}

// DecodeDataAnswer reads the form EncodeDataAnswer writes. On a shared
// Dec (wire.NewDecShared) the answer's strings are views into the buffer,
// which must then outlive the answer unchanged.
func DecodeDataAnswer(d *wire.Dec) (*DataAnswer, error) {
	a := &DataAnswer{Peers: decodeNodeIDs(d)}
	a.Visited = int(d.Varint())
	ans, err := decodeAnswer(d)
	if err != nil {
		return nil, err
	}
	a.Answer = ans
	return a, nil
}

// decodeNodeIDs reads a counted list of node ids, nil when empty.
func decodeNodeIDs(d *wire.Dec) []p2p.NodeID {
	n := d.Count()
	if n == 0 {
		return nil
	}
	ids := make([]p2p.NodeID, n)
	for i := range ids {
		ids[i] = p2p.NodeID(d.Varint())
	}
	return ids
}

func encodeQueryResponse(e *wire.Enc, payload any) error {
	p, ok := payload.(QueryResponsePayload)
	if !ok {
		return fmt.Errorf("routing: %s codec got %T", MsgQueryResponse, payload)
	}
	e.Uvarint(p.QID)
	e.String(p.Err)
	e.Uvarint(uint64(len(p.Peers)))
	for _, id := range p.Peers {
		e.Varint(int64(id))
	}
	e.Varint(int64(p.Visited))
	encodeAnswer(e, p.Answer)
	return nil
}

func decodeQueryResponse(data []byte) (any, error) {
	d := wire.NewDec(data)
	p := QueryResponsePayload{QID: d.Uvarint(), Err: d.String(), Peers: decodeNodeIDs(d)}
	p.Visited = int(d.Varint())
	ans, err := decodeAnswer(d)
	if err != nil {
		return nil, err
	}
	p.Answer = ans
	return p, d.Done()
}

// QueryService evaluates MsgQuery messages at summary peers and correlates
// MsgQueryResponse messages back to asking drivers. It installs itself as
// the core system's extension handler, so the evaluation runs on the
// summary peer's dispatch group — serialized with the domain's merges and
// reconciliations — in whichever process hosts the summary peer.
type QueryService struct {
	sys *core.System

	mu      sync.Mutex
	nextQID uint64
	pending map[uint64]chan QueryResponsePayload
}

// NewQueryService wires the service onto the system (replacing any
// previously installed extension handler).
func NewQueryService(sys *core.System) *QueryService {
	qs := &QueryService{sys: sys, pending: make(map[uint64]chan QueryResponsePayload)}
	sys.SetExtension(qs.handle)
	return qs
}

// handle runs on the receiving peer's dispatch group.
func (qs *QueryService) handle(p *core.Peer, msg *p2p.Message) {
	switch msg.Type {
	case MsgQuery:
		pl, ok := msg.Payload.(QueryPayload)
		if !ok {
			return
		}
		resp := QueryResponsePayload{QID: pl.QID}
		st := p.SummaryStore()
		switch {
		case p.Role() != core.RoleSummaryPeer:
			resp.Err = "not a summary peer"
		case st == nil:
			resp.Err = "domain has no data-level global summary"
		default:
			sa, err := query.AnswerStore(st, pl.Query)
			if err != nil {
				resp.Err = err.Error()
			} else {
				resp.Peers = PeersOf(sa.Peers)
				resp.Visited = sa.Visited
				resp.Answer = sa.Answer
			}
		}
		qs.sys.Transport().SendNew(MsgQueryResponse, p.ID(), msg.From, 0, resp)
	case MsgQueryResponse:
		pl, ok := msg.Payload.(QueryResponsePayload)
		if !ok {
			return
		}
		qs.mu.Lock()
		ch := qs.pending[pl.QID]
		delete(qs.pending, pl.QID)
		qs.mu.Unlock()
		if ch != nil {
			ch <- pl
		}
	}
}

// respChans pools the capacity-1 channels Ask correlates answers on: one
// Get per query instead of one allocation per query. A channel returns to
// the pool only when it is provably empty and unreachable from the
// handler — after a successful receive, or after a timeout that found the
// query still registered (so no handler ever claimed it).
var respChans = sync.Pool{New: func() any { return make(chan QueryResponsePayload, 1) }}

// Ask routes q from origin to its domain's summary peer as a protocol
// message and blocks (driver-side; never call from a handler) until the
// answer returns or the timeout elapses. When the summary peer is hosted
// in this very process the message loops back through the local dispatch
// engine — one code path for both deployments.
func (qs *QueryService) Ask(origin p2p.NodeID, q query.Query, timeout time.Duration) (*DataAnswer, error) {
	sp := qs.sys.DomainOf(origin)
	if sp < 0 {
		return nil, fmt.Errorf("routing: origin %d has no domain", origin)
	}
	ch := respChans.Get().(chan QueryResponsePayload)
	qs.mu.Lock()
	qs.nextQID++
	qid := qs.nextQID
	qs.pending[qid] = ch
	qs.mu.Unlock()
	qs.sys.Transport().SendNew(MsgQuery, origin, sp, 0, QueryPayload{QID: qid, Query: q})
	timer := time.NewTimer(timeout)
	select {
	case resp := <-ch:
		timer.Stop()
		respChans.Put(ch)
		if resp.Err != "" {
			return nil, errors.New("routing: " + resp.Err)
		}
		return &DataAnswer{Peers: resp.Peers, Answer: resp.Answer, Visited: resp.Visited}, nil
	case <-timer.C:
		qs.mu.Lock()
		_, unclaimed := qs.pending[qid]
		delete(qs.pending, qid)
		qs.mu.Unlock()
		if unclaimed {
			// The handler never saw the query: nothing can ever send on
			// this channel, so it is safe to reuse.
			respChans.Put(ch)
		}
		// Otherwise the handler claimed the channel concurrently with the
		// timeout and a buffered send is (or soon will be) in flight; the
		// channel is abandoned to the GC rather than pooled with a stale
		// answer inside.
		return nil, fmt.Errorf("routing: query %d to summary peer %d timed out after %v", qid, sp, timeout)
	}
}
