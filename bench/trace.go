package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"p2psum/internal/core"
	"p2psum/internal/gateway"
	"p2psum/internal/liveness"
	"p2psum/internal/p2p"
	"p2psum/internal/query"
	"p2psum/internal/routing"
	"p2psum/internal/stats"
	"p2psum/internal/topology"
	"p2psum/internal/wire"
)

// Tracing from outside the program under test: spans are recorded only by
// this package — around the driver's own calls, by traceTransport (a
// p2p.Transport decorator) and by traceBackend (a gateway.Backend
// decorator). Nothing inside internal/... knows it is being traced.

// spanID names a span kind. The table is fixed so the hot path indexes an
// array instead of hashing a string.
type spanID int32

const (
	spConstruct   spanID = iota // driver: ElectSummaryPeers + Construct + Settle
	spWave                      // driver: one modification wave
	spRun                       // driver: Engine.RunUntil segment
	spSettle                    // transport: Settle
	spExec                      // transport: Exec (driver code serialized with handlers)
	spHops                      // transport: HopsWithin
	spSend                      // transport: Send / SendNew
	spFlood                     // transport: Flood
	spWalk                      // transport: SelectiveWalk / RandomWalk
	spTimer                     // transport: After / AfterFrom callback
	spJoin                      // driver closure: System.Join
	spLeave                     // driver closure: System.Leave
	spModify                    // driver closure: System.MarkModified (churn)
	spGossipRound               // driver closure: System.GossipRound
	spSample                    // driver closure: coverage/staleness sample
	spCellsMap                  // driver: cells.Store.AddRelation
	spIncorporate               // driver: saintetiq.Tree.IncorporateStore
	spExecute                   // backend: gateway.Backend.Execute
	spAskHit                    // driver: WireClient.Ask answered from the cache
	spAskMiss                   // driver: WireClient.Ask answered upstream
	spInstall                   // driver: installer re-summarise + ring
	spHandlerBase               // first of the per-message-type handler spans
)

// handlerTypes are the message types whose handlers get their own span
// name; everything else lands in "other".
var handlerTypes = []string{
	core.MsgSumpeer, core.MsgLocalsum, core.MsgPush,
	core.MsgReconcile, core.MsgGossip, "other",
}

var spanNames = func() []string {
	names := []string{
		"driver.construct", "driver.wave", "driver.run", "sim.settle", "core.exec",
		"topology.hops", "p2p.send", "p2p.flood", "p2p.walk", "core.timer",
		"core.join", "core.leave", "core.modify", "core.gossip_round", "bench.sample",
		"cells.map", "saintetiq.incorporate", "routing.execute",
		"gateway.ask_hit", "gateway.ask_miss", "driver.install",
	}
	for _, t := range handlerTypes {
		names = append(names, "core.handler."+t)
	}
	return names
}()

// handlerSpan maps a message type to its span id.
func handlerSpan(typ string) spanID {
	for i, t := range handlerTypes {
		if t == typ {
			return spHandlerBase + spanID(i)
		}
	}
	return spHandlerBase + spanID(len(handlerTypes)-1)
}

// handlerSpans lists the span id of every handler kind.
func handlerSpans() []spanID {
	ids := make([]spanID, len(handlerTypes))
	for i := range ids {
		ids[i] = spHandlerBase + spanID(i)
	}
	return ids
}

// span is one recorded interval; times are nanoseconds since the
// recorder's origin, parent is an index into the span slice (-1: root).
type span struct {
	id         spanID
	parent     int32
	start, end int64
}

// recorder keeps spans in memory until the run ends. begin/end serve the
// single simulation goroutine and nest through a stack; flat serves the
// serving workloads' goroutines, whose spans cross a socket and therefore
// have no recorded parent. A nil recorder records nothing, so driver code
// is identical in traced and untraced runs.
type recorder struct {
	t0    time.Time
	stack []int32
	mu    sync.Mutex // guards spans against concurrent flat calls
	spans []span
	// paused drops flat spans: set while a serving workload warms up.
	paused atomic.Bool
}

func (r *recorder) pause(on bool) {
	if r != nil {
		r.paused.Store(on)
	}
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(id spanID) {
	if r == nil {
		return
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.stack = append(r.stack, int32(len(r.spans)))
	r.spans = append(r.spans, span{id: id, parent: parent, start: int64(time.Since(r.t0))})
}

func (r *recorder) end() {
	if r == nil {
		return
	}
	n := len(r.stack) - 1
	r.spans[r.stack[n]].end = int64(time.Since(r.t0))
	r.stack = r.stack[:n]
}

func (r *recorder) flat(id spanID, start time.Time, d time.Duration) {
	if r == nil || r.paused.Load() {
		return
	}
	s := int64(start.Sub(r.t0))
	r.mu.Lock()
	r.spans = append(r.spans, span{id: id, parent: -1, start: s, end: s + int64(d)})
	r.mu.Unlock()
}

// spanStat aggregates one span kind: calls, total time and self time (total
// minus the part covered by child spans), in nanoseconds.
type spanStat struct {
	calls       int64
	total, self int64
}

// summarize folds the spans into per-kind statistics.
func (r *recorder) summarize() []spanStat {
	out := make([]spanStat, len(spanNames))
	for _, s := range r.spans {
		d := s.end - s.start
		st := &out[s.id]
		st.calls++
		st.total += d
		st.self += d
		if s.parent >= 0 {
			out[r.spans[s.parent].id].self -= d
		}
	}
	return out
}

// durations returns the microsecond durations of every span of one kind.
func (r *recorder) durations(id spanID) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.id == id {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	return out
}

// maxTraceSpans bounds the trace file; the in-memory statistics always
// cover every span.
const maxTraceSpans = 1 << 20

// writeFile flushes the spans as JSON: a name table and one
// [name, parent, start_ns, duration_ns] row per span.
func (r *recorder) writeFile(path string, meta map[string]string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	n := len(r.spans)
	if n > maxTraceSpans {
		n = maxTraceSpans
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(w, "{\"meta\":%s,\"total_spans\":%d,\"names\":[", metaJSON, len(r.spans))
	for i, name := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", name)
	}
	w.WriteString("],\"columns\":[\"name\",\"parent\",\"start_ns\",\"duration_ns\"],\"spans\":[\n")
	var buf []byte
	for i, s := range r.spans[:n] {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ",\n"...)
		}
		buf = append(buf, '[')
		buf = strconv.AppendInt(buf, int64(s.id), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.end-s.start, 10)
		buf = append(buf, ']')
		w.Write(buf)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceTransport decorates the sequential discrete-event Network. It
// forwards every call unchanged — including the optional
// p2p.OriginScheduler and p2p.DispatchGrouper interfaces the protocol
// probes for — so a traced run is observably identical to an untraced one
// (the determinism gate compares their report hashes).
type traceTransport struct {
	inner *p2p.Network
	rec   *recorder
	// ballNodes sums the BFS-ball sizes HopsWithin built; one entry of
	// each ball is read by the caller.
	ballNodes int64
	// frames samples the encoded frame size of every frameSampleEvery-th
	// send, read off the byte counter; captured keeps up to maxCaptured
	// encoded maintenance frames per type for the wire probes.
	sends    int64
	frames   []float64
	captured map[string]*frameSample
}

const (
	frameSampleEvery = 16
	maxCaptured      = 64
)

// encodeFrame serialises msg as the transports do, through the public wire
// API. It reports false for payloads without a registered codec.
func encodeFrame(msg *p2p.Message) ([]byte, bool) {
	f := wire.Frame{Type: msg.Type, From: int64(msg.From), To: int64(msg.To), TTL: msg.TTL, Hops: msg.Hops}
	if msg.Payload != nil {
		c, ok := wire.Lookup(msg.Type)
		if !ok {
			return nil, false
		}
		e := wire.GetEnc()
		defer e.Release()
		if err := c.Encode(e, msg.Payload); err != nil {
			return nil, false
		}
		f.HasPayload, f.Payload = true, e.Bytes()
	}
	return f.Encode(), true
}

// frameSample is an evenly spaced sample of one message type's encoded
// frames: when it fills up, every other frame is dropped and the spacing
// doubles, so early (first-contact) frames do not crowd out the rest.
type frameSample struct {
	frames       [][]byte
	seen, stride int
}

// capture keeps an encoded copy of a sampled push, reconcile or gossip
// message.
func (t *traceTransport) capture(msg *p2p.Message) {
	switch msg.Type {
	case core.MsgPush, core.MsgReconcile, core.MsgGossip:
	default:
		return
	}
	if t.captured == nil {
		t.captured = make(map[string]*frameSample)
	}
	fs := t.captured[msg.Type]
	if fs == nil {
		fs = &frameSample{stride: 1}
		t.captured[msg.Type] = fs
	}
	fs.seen++
	if fs.seen%fs.stride != 0 {
		return
	}
	b, ok := encodeFrame(msg)
	if !ok {
		return
	}
	fs.frames = append(fs.frames, b)
	if len(fs.frames) == maxCaptured {
		for i := 0; i < maxCaptured/2; i++ {
			fs.frames[i] = fs.frames[2*i+1]
		}
		fs.frames = fs.frames[:maxCaptured/2]
		fs.stride *= 2
	}
}

var (
	_ p2p.Transport       = (*traceTransport)(nil)
	_ p2p.OriginScheduler = (*traceTransport)(nil)
	_ p2p.DispatchGrouper = (*traceTransport)(nil)
)

func (t *traceTransport) Len() int                             { return t.inner.Len() }
func (t *traceTransport) Neighbors(id p2p.NodeID) []p2p.NodeID { return t.inner.Neighbors(id) }
func (t *traceTransport) Degree(id p2p.NodeID) int             { return t.inner.Degree(id) }
func (t *traceTransport) Liveness() *liveness.View             { return t.inner.Liveness() }
func (t *traceTransport) Online(id p2p.NodeID) bool            { return t.inner.Online(id) }
func (t *traceTransport) SetOnline(id p2p.NodeID, up bool)     { t.inner.SetOnline(id, up) }
func (t *traceTransport) OnlineCount() int                     { return t.inner.OnlineCount() }
func (t *traceTransport) OnlineIDs() []p2p.NodeID              { return t.inner.OnlineIDs() }
func (t *traceTransport) SetDrop(fn func(*p2p.Message))        { t.inner.SetDrop(fn) }
func (t *traceTransport) Counter() *stats.Counter              { return t.inner.Counter() }
func (t *traceTransport) Bytes() *stats.Counter                { return t.inner.Bytes() }
func (t *traceTransport) SetLinkFilter(fn p2p.LinkFilter)      { t.inner.SetLinkFilter(fn) }
func (t *traceTransport) DispatchGroups() int                  { return t.inner.DispatchGroups() }
func (t *traceTransport) Graph() *topology.Graph               { return t.inner.Graph() }
func (t *traceTransport) SetGroupBy(fn func(p2p.NodeID) int) bool {
	return t.inner.SetGroupBy(fn)
}

func (t *traceTransport) HopsWithin(src p2p.NodeID, radius int) map[p2p.NodeID]int {
	t.rec.begin(spHops)
	out := t.inner.HopsWithin(src, radius)
	t.rec.end()
	t.ballNodes += int64(len(out))
	return out
}

func (t *traceTransport) SetHandler(id p2p.NodeID, h p2p.Handler) {
	if h == nil {
		t.inner.SetHandler(id, nil)
		return
	}
	t.inner.SetHandler(id, func(msg *p2p.Message) {
		t.rec.begin(handlerSpan(msg.Type))
		h(msg)
		t.rec.end()
	})
}

func (t *traceTransport) Send(msg *p2p.Message) {
	t.sends++
	sample := t.sends%frameSampleEvery == 0
	var before int64
	if sample {
		t.capture(msg)
		before = t.inner.Bytes().Get(msg.Type)
	}
	t.rec.begin(spSend)
	t.inner.Send(msg)
	t.rec.end()
	if sample {
		t.frames = append(t.frames, float64(t.inner.Bytes().Get(msg.Type)-before))
	}
}

func (t *traceTransport) SendNew(typ string, from, to p2p.NodeID, ttl int, payload any) {
	t.Send(&p2p.Message{Type: typ, From: from, To: to, TTL: ttl, Payload: payload})
}

func (t *traceTransport) Flood(typ string, src p2p.NodeID, ttl int, payload any, visit func(p2p.NodeID)) map[p2p.NodeID]bool {
	t.rec.begin(spFlood)
	defer t.rec.end()
	return t.inner.Flood(typ, src, ttl, payload, visit)
}

func (t *traceTransport) SelectiveWalk(typ string, src p2p.NodeID, maxHops int, accept func(p2p.NodeID) bool) p2p.WalkResult {
	t.rec.begin(spWalk)
	defer t.rec.end()
	return t.inner.SelectiveWalk(typ, src, maxHops, accept)
}

func (t *traceTransport) RandomWalk(typ string, src p2p.NodeID, maxHops int, accept func(p2p.NodeID) bool) p2p.WalkResult {
	t.rec.begin(spWalk)
	defer t.rec.end()
	return t.inner.RandomWalk(typ, src, maxHops, accept)
}

func (t *traceTransport) Exec(fn func()) {
	t.rec.begin(spExec)
	t.inner.Exec(fn)
	t.rec.end()
}

func (t *traceTransport) timer(fn func()) func() {
	return func() {
		t.rec.begin(spTimer)
		fn()
		t.rec.end()
	}
}

func (t *traceTransport) After(owner p2p.NodeID, delaySeconds float64, fn func()) {
	t.inner.After(owner, delaySeconds, t.timer(fn))
}

func (t *traceTransport) AfterFrom(origin, owner p2p.NodeID, delaySeconds float64, fn func()) {
	t.inner.AfterFrom(origin, owner, delaySeconds, t.timer(fn))
}

func (t *traceTransport) Settle() {
	t.rec.begin(spSettle)
	t.inner.Settle()
	t.rec.end()
}

// traceBackend decorates a gateway.Backend: Execute is the boundary
// between the gateway and query evaluation (routing → query → summarystore
// → saintetiq).
type traceBackend struct {
	gateway.Backend
	rec *recorder
}

func (b traceBackend) Execute(origin p2p.NodeID, q query.Query) (*routing.DataAnswer, error) {
	start := time.Now()
	ans, err := b.Backend.Execute(origin, q)
	b.rec.flat(spExecute, start, time.Since(start))
	return ans, err
}
