package routing

import (
	"errors"
	"fmt"
	"slices"
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
// MsgQuery payload codec and the gateway's client framing:
//
//	strings  uvarint   select attributes plus every clause's labels
//	select   uvarint count + strings
//	where    uvarint count; per clause its attribute (string) and
//	         its labels (uvarint count + strings)
//
// The leading total sizes the one slab DecodeFlexQuery carves every list
// out of, so the decode is a single pass.
func EncodeFlexQuery(e *wire.Enc, q query.Query) {
	n := len(q.Select)
	for _, c := range q.Where {
		n += len(c.Labels)
	}
	e.Uvarint(uint64(n))
	e.Strings(q.Select)
	e.Uvarint(uint64(len(q.Where)))
	for _, c := range q.Where {
		e.String(c.Attr)
		e.Strings(c.Labels)
	}
}

// DecodeFlexQuery reads the form EncodeFlexQuery writes; on malformed
// input it returns the zero query and leaves the error on d. A body whose
// lists hold more or fewer strings than its leading total is refused
// with errTotals, so decoding stays canonical.
func DecodeFlexQuery(d *wire.Dec) query.Query {
	var q query.Query
	slab := make([]string, 0, d.Count())
	q.Select, slab = carveStrings(d, slab)
	if n := d.Count(); n > 0 {
		q.Where = make([]query.Clause, n)
		for i := range q.Where {
			q.Where[i].Attr = d.String()
			q.Where[i].Labels, slab = carveStrings(d, slab)
		}
	}
	if len(slab) != cap(slab) {
		d.Fail(errTotals)
	}
	if d.Err() != nil {
		return query.Query{}
	}
	return q
}

// errTotals refuses a body whose declared totals disagree with the rows
// it holds: the slabs are sized by the totals, and encoders write them
// exactly.
var errTotals = errors.New("routing: declared totals disagree with the rows")

// carveStrings reads a counted string list onto the end of slab and
// returns it as an exact-capacity window (non-nil when slab is), with the
// grown slab. A list that would outgrow slab's capacity fails d with
// errTotals.
func carveStrings(d *wire.Dec, slab []string) ([]string, []string) {
	lo, n := len(slab), d.Count()
	if n > cap(slab)-lo {
		d.Fail(errTotals)
		return slab[lo:lo:lo], slab
	}
	slab = slab[:lo+n]
	for i := lo; i < len(slab); i++ {
		slab[i] = d.String()
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

// The answer layout (encodeAnswer, decodeAnswer), after a presence bool
// and the answer's flexible query:
//
//	classes   uvarint n; nothing follows when n is 0
//	totals    uvarint each: label sets, labels, measures and peers over
//	          all n classes
//	attrs     uvarint count + strings, strictly ascending: the distinct
//	          attributes of the class rows, each written once
//	n classes interpretation and answers (per row: uvarint count, then
//	          per set its attribute index and its labels as uvarint
//	          count + strings), weight (8 bytes), peers (uvarint count +
//	          varints), measures (uvarint count, then per measure its
//	          attribute index and Weight, Min, Max, Sum, SumSq at 8
//	          bytes each)
//
// Floats are wire.Float64Fixed: little-endian IEEE bits. A row names its
// attributes by index into attrs, ascending. The decoder allocates its
// slabs from the totals and reads the body once; it refuses totals that
// disagree with the rows, a table that is not strictly ascending or has
// an entry no row names, an index out of range and a row whose indexes
// do not ascend — so every accepted body is the encoding of what it
// decodes to.

// maxStackAttrs is the attribute-table size encodeAnswer builds without
// allocating; a larger table spills to the heap.
const maxStackAttrs = 16

// attrAt finds attr in the ascending table attrs. It scans from *at
// first, where a row's next attribute lies when the row ascends (each row
// starts at 0), and falls back to a binary search. It reports attr's index,
// or where to insert it, and whether it was found, and leaves *at past it.
func attrAt(attrs []string, at *int, attr string) (int, bool) {
	for i := *at; i < len(attrs); i++ {
		if attrs[i] == attr {
			*at = i + 1
			return i, true
		}
	}
	i, found := slices.BinarySearch(attrs, attr)
	*at = i + 1
	return i, found
}

// addAttr inserts attr into the ascending table attrs unless it is there
// (see attrAt for at).
func addAttr(attrs []string, at *int, attr string) []string {
	if i, found := attrAt(attrs, at, attr); !found {
		attrs = slices.Insert(attrs, i, attr)
	}
	return attrs
}

// encodeLabelSets writes a class's label sets in their given order (the
// ascending attribute order for a well-formed class), each naming its
// attribute by its index in attrs.
func encodeLabelSets(e *wire.Enc, attrs []string, sets query.LabelSets) {
	e.Uvarint(uint64(len(sets)))
	at := 0
	for _, ls := range sets {
		i, _ := attrAt(attrs, &at, ls.Attr)
		e.Uvarint(uint64(i))
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
	if len(a.Classes) == 0 {
		return
	}
	var stack [maxStackAttrs]string
	attrs := stack[:0]
	var sets, labels, measures, peers int
	for i := range a.Classes {
		c := &a.Classes[i]
		for _, rows := range [2]query.LabelSets{c.Interpretation, c.Answers} {
			at := 0
			for _, ls := range rows {
				labels += len(ls.Labels)
				attrs = addAttr(attrs, &at, ls.Attr)
			}
			sets += len(rows)
		}
		at := 0
		for _, am := range c.Measures {
			attrs = addAttr(attrs, &at, am.Attr)
		}
		measures += len(c.Measures)
		peers += len(c.Peers)
	}
	e.Uvarint(uint64(sets))
	e.Uvarint(uint64(labels))
	e.Uvarint(uint64(measures))
	e.Uvarint(uint64(peers))
	e.Strings(attrs)
	for i := range a.Classes {
		c := &a.Classes[i]
		encodeLabelSets(e, attrs, c.Interpretation)
		encodeLabelSets(e, attrs, c.Answers)
		e.Float64Fixed(c.Weight)
		e.Uvarint(uint64(len(c.Peers)))
		for _, p := range c.Peers {
			e.Varint(int64(p))
		}
		e.Uvarint(uint64(len(c.Measures)))
		at := 0
		for _, am := range c.Measures {
			m := am.Measure
			i, _ := attrAt(attrs, &at, am.Attr)
			e.Uvarint(uint64(i))
			e.Float64Fixed(m.Weight)
			e.Float64Fixed(m.Min)
			e.Float64Fixed(m.Max)
			e.Float64Fixed(m.Sum)
			e.Float64Fixed(m.SumSq)
		}
	}
}

// The refusals of the answer decoder beyond errTotals.
var (
	// errAttrOrder rejects a class row whose attribute indexes do not
	// strictly ascend.
	errAttrOrder = errors.New("routing: answer attributes not strictly ascending")
	// errAttrTable rejects an attribute table that is not strictly
	// ascending.
	errAttrTable = errors.New("routing: answer attribute table not strictly ascending")
	// errAttrIndex rejects a row that names an attribute beyond the table.
	errAttrIndex = errors.New("routing: answer attribute index out of range")
	// errAttrUnused rejects a table entry that no row names.
	errAttrUnused = errors.New("routing: answer attribute table entry unused")
)

// Minimum encoded sizes: a class (two row counts, its weight, peer and
// measure counts), a label set (index, label count) and a measure (index,
// five floats). A label, a peer and a table entry take at least a byte.
const minClassBytes, minSetBytes, minMeasureBytes = 12, 2, 41

// answerSlabs are the backing arrays every class row of one decoded answer
// is carved out of, each sized exactly by the totals the answer declares.
// The attribute table and its used-marks ride at the heads of the labels
// and peers slabs, so they cost no allocation of their own; no row window
// reaches them.
type answerSlabs struct {
	attrs    []string           // the attribute table: the head of labels
	used     []saintetiq.PeerID // entry i is non-zero once a row names attrs[i]: the head of peers
	sets     []query.LabelSet
	labels   []string
	measures []query.AttrMeasure
	peers    []saintetiq.PeerID
}

// init reads the totals and the attribute table that follow a class count
// of n and allocates the slabs. Totals the rest of the body cannot hold
// are refused before anything is sized by them.
func (s *answerSlabs) init(d *wire.Dec, n int) error {
	sets, labels, measures, peers := d.Count(), d.Count(), d.Count(), d.Count()
	attrs := d.Count()
	if err := d.Err(); err != nil {
		return err
	}
	if minClassBytes*n+minSetBytes*sets+labels+minMeasureBytes*measures+peers+attrs > d.Remaining() {
		return errTotals
	}
	s.labels = make([]string, attrs, attrs+labels)
	s.attrs = s.labels[:attrs:attrs]
	for i := range s.attrs {
		s.attrs[i] = d.String()
		if i > 0 && s.attrs[i] <= s.attrs[i-1] && d.Err() == nil {
			return errAttrTable
		}
	}
	s.sets = make([]query.LabelSet, 0, sets)
	s.measures = make([]query.AttrMeasure, 0, measures)
	s.peers = make([]saintetiq.PeerID, attrs, attrs+peers)
	s.used = s.peers[:attrs:attrs]
	return d.Err()
}

// attr reads a row's next attribute index, which must name a table entry
// after the row's previous one (*prev, -1 at the row's start), marks the
// entry used and returns its name.
func (s *answerSlabs) attr(d *wire.Dec, prev *int) (string, error) {
	u := d.Uvarint()
	switch {
	case d.Err() != nil:
		return "", d.Err()
	case u >= uint64(len(s.attrs)):
		return "", errAttrIndex
	case int(u) <= *prev:
		return "", errAttrOrder
	}
	*prev = int(u)
	s.used[u] = 1
	return s.attrs[u], nil
}

// labelSets carves one class's label sets out of the slabs; nil when the
// encoding holds none.
func (s *answerSlabs) labelSets(d *wire.Dec) (query.LabelSets, error) {
	n := d.Count()
	if n == 0 {
		return nil, nil
	}
	lo := len(s.sets)
	if n > cap(s.sets)-lo {
		return nil, errTotals
	}
	prev := -1
	for i := 0; i < n; i++ {
		attr, err := s.attr(d, &prev)
		if err != nil {
			return nil, err
		}
		ls := query.LabelSet{Attr: attr}
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
	c.Weight = d.Float64Fixed()
	if n := d.Count(); n > 0 {
		lo := len(s.peers)
		if n > cap(s.peers)-lo {
			return errTotals
		}
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
	if n > cap(s.measures)-lo {
		return errTotals
	}
	prev := -1
	for i := 0; i < n; i++ {
		attr, err := s.attr(d, &prev)
		if err != nil {
			return err
		}
		s.measures = append(s.measures, query.AttrMeasure{Attr: attr, Measure: cells.Measure{
			Weight: d.Float64Fixed(),
			Min:    d.Float64Fixed(),
			Max:    d.Float64Fixed(),
			Sum:    d.Float64Fixed(),
			SumSq:  d.Float64Fixed(),
		}})
	}
	c.Measures = s.measures[lo:len(s.measures):len(s.measures)]
	return nil
}

// done checks, once every class is read, that the rows filled each slab
// to the declared total and named every table entry.
func (s *answerSlabs) done() error {
	if len(s.sets) != cap(s.sets) || len(s.labels) != cap(s.labels) ||
		len(s.measures) != cap(s.measures) || len(s.peers) != cap(s.peers) {
		return errTotals
	}
	for _, u := range s.used {
		if u == 0 {
			return errAttrUnused
		}
	}
	return nil
}

// decodeAnswer reads the form encodeAnswer writes. Its strings are views
// into the buffer when d is shared; every row's attribute is a view of
// the one table entry it names.
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
	if err := s.init(d, n); err != nil {
		return nil, err
	}
	a.Classes = make([]query.Class, n)
	for i := range a.Classes {
		if err := s.class(d, &a.Classes[i]); err != nil {
			return nil, err
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := s.done(); err != nil {
		return nil, err
	}
	return a, nil
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
// dispatch lane — serialized with the domain's merges and reconciliations
// — in whichever process hosts the summary peer.
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

// handle runs on the receiving peer's dispatch lane.
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
