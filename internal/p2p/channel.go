package p2p

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"p2psum/internal/liveness"
	"p2psum/internal/topology"
)

// ChannelConfig tunes the concurrent in-memory transport.
type ChannelConfig struct {
	// LatencyScale maps one virtual second of link latency onto real time.
	// Overlay link latencies are 0.01–0.2 virtual seconds, so the default
	// of 1ms yields 10–200µs sleeps per hop — real concurrency without
	// making protocol runs crawl. Zero delivers as fast as the scheduler
	// allows (messages still traverse goroutines and may interleave).
	LatencyScale time.Duration
	// LossRate silently drops each unicast with this probability in
	// [0,1): the message is counted as sent (the bytes hit the wire) but
	// never delivered and never reported through the drop callback —
	// genuine packet loss, unlike the offline-receiver drops protocols
	// detect via SetDrop.
	LossRate float64
	// DirectLatency (virtual seconds) is used for node pairs without an
	// overlay edge. Defaults to 0.100, matching Network.
	DirectLatency float64
	// Dispatchers is the number of dispatch groups: every node belongs to
	// exactly one group, each group has its own serialized dispatcher
	// goroutine, inbox and timer set, and distinct groups run their
	// handlers concurrently. 0 or 1 keeps the original single-dispatcher
	// layout (bit-identical behaviour to the pre-sharding transport);
	// values above the node count are clamped.
	// The initial mapping partitions the id space into contiguous blocks;
	// internal/core installs a domain-based one via SetGroupBy before
	// construction, so independent domains land on distinct dispatchers.
	Dispatchers int
}

// DefaultChannelConfig returns the defaults described on ChannelConfig.
func DefaultChannelConfig() ChannelConfig {
	return ChannelConfig{LatencyScale: time.Millisecond, DirectLatency: 0.100}
}

// ChannelTransport is the concurrent, real-time Transport: every unicast is
// carried by its own goroutine that sleeps the scaled link latency and then
// hands the message to the dispatcher goroutine owning the destination's
// dispatch group. Each group's dispatcher runs its nodes' handlers
// sequentially, so protocol handlers (which mutate per-node protocol state)
// need no internal locking — the same contract the discrete-event Network
// gives them, narrowed from "one global serial order" to "one serial order
// per group". With Dispatchers <= 1 (the default) there is a single group
// and the transport behaves exactly like the original single-dispatcher
// implementation.
//
// Sharded dispatch exists for multi-domain scale-out: partition the nodes
// by domain (SetGroupBy) and independent domains reconcile and answer
// queries truly in parallel, while handler serialization per node — and
// therefore per domain — is preserved. Cross-group sends are routed through
// the destination group's inbox; drop callbacks are routed to the sender's
// group (they mutate sender-side protocol state, see SetDrop). The
// transport bookkeeping is sharded the same way: each group counts its own
// pending work and charges its own ledger, and Counter/Bytes merge the
// ledgers into a snapshot on read — at high message rates groups never
// contend on shared accounting.
//
// Unlike Network, runs are not deterministic: wall-clock scheduling decides
// the delivery interleaving of same-window messages. Use it for scenarios
// the event engine cannot express (real elapsed time, lossy links,
// concurrent load); use Network when bit-for-bit reproducibility matters.
//
// Close must be called when the transport is no longer needed, or the
// dispatcher goroutines leak.
type ChannelTransport struct {
	overlay
	books // one ledger per dispatch group
	cfg   ChannelConfig
	eng   *dispatchEngine

	mu      sync.Mutex // guards rng
	rng     *rand.Rand
	nextMsg atomic.Uint64
}

// NewChannelTransport builds a concurrent transport over the graph. All
// nodes start online. The dispatcher goroutines (one per dispatch group)
// start immediately.
func NewChannelTransport(graph *topology.Graph, seed int64, cfg ChannelConfig) *ChannelTransport {
	if cfg.LatencyScale < 0 {
		cfg.LatencyScale = 0
	}
	if cfg.DirectLatency == 0 {
		cfg.DirectLatency = 0.100
	}
	n := graph.Len()
	t := &ChannelTransport{
		overlay: overlay{graph: graph, view: liveness.NewView(n, nil)},
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(seed)),
	}
	t.eng = newDispatchEngine(n, cfg.Dispatchers, t.deliver)
	t.cfg.Dispatchers = t.eng.groupCount()
	t.books = make(books, t.cfg.Dispatchers)
	return t
}

// DispatchGroups returns the number of dispatch groups (>= 1).
func (t *ChannelTransport) DispatchGroups() int { return t.eng.groupCount() }

// GroupOf returns the dispatch group currently owning the node.
func (t *ChannelTransport) GroupOf(id NodeID) int { return t.eng.groupFor(id) }

// SetGroupBy replaces the node -> dispatch-group mapping (reduced modulo
// DispatchGroups). The mapping can only change while the transport is
// still pristine — before the first Send — because remapping a node with
// messages in flight would break its serialization guarantee; later calls
// return false and keep the current mapping. Any mapping is semantically
// valid (per-node serialization holds regardless); the choice only decides
// which nodes can run concurrently. internal/core calls this with a
// domain-based partition so independent domains get independent
// dispatchers.
func (t *ChannelTransport) SetGroupBy(fn func(NodeID) int) bool {
	if fn == nil {
		return false
	}
	if t.nextMsg.Load() != 0 {
		return false
	}
	return t.eng.remap(fn)
}

// deliver hands one message to its destination handler, or — destination
// offline, handler-less or behind a severed link — to the engine's drop
// routing (§4.3 failure detection in the sender's group).
func (t *ChannelTransport) deliver(g int, env envelope) {
	msg := env.msg
	if h := t.eng.handlerOf(msg.To); h != nil && t.deliverable(msg.From, msg.To) {
		h(msg)
		t.eng.finishPending(g)
		return
	}
	t.eng.routeDrop(g, msg)
}

// Exec submits fn to the dispatch layer and blocks until it has run,
// serialized against every handler: with a single group fn runs on the
// dispatcher goroutine between deliveries; with sharded dispatch every
// group is parked at a barrier and fn runs on the caller while no handler
// anywhere is executing. Driver code that mutates protocol state (leave,
// join, construction) goes through here so it never interleaves with a
// handler.
//
// Calling Exec from inside a handler, drop callback or timer callback
// would deadlock the dispatcher — the current work item can never finish
// while Exec waits for it — so that misuse panics instead. Nesting Exec
// inside an Exec'd closure still deadlocks (documented contract).
func (t *ChannelTransport) Exec(fn func()) { t.eng.exec(fn) }

// After schedules fn on the dispatcher of owner's group, delaySeconds of
// virtual time from now (scaled by LatencyScale like link latencies; with
// LatencyScale 0 — deliver-as-fast-as-possible mode — timers fall back to
// the default 1ms/virtual-second scale so a timeout still fires after, not
// before, the messages it guards). fn is serialized with the handlers of
// owner's group, which is what protocol timers need: they mutate the
// arming node's state. A pending timer does not count as in-flight —
// Settle does not wait for it — but once the real-time delay elapses, fn
// runs on the owning dispatcher and a concurrent Settle blocks until it
// has run. Close cancels every armed timer; timers that already fired
// observe the closed transport and are dropped.
func (t *ChannelTransport) After(owner NodeID, delaySeconds float64, fn func()) {
	scale := t.cfg.LatencyScale
	if scale <= 0 {
		scale = time.Millisecond
	}
	t.eng.after(owner, time.Duration(delaySeconds*float64(scale)), fn)
}

// Close shuts every dispatcher down after draining in-flight messages and
// fired timers, and cancels timers that have not fired yet — an idle group
// holds no in-flight work, so its armed timers would otherwise linger in
// the runtime until they fire just to observe the closed flag. The drain
// verification and the shutdown happen under the engine lock, so a timer
// firing concurrently either lands before its inbox closes (pending was
// incremented first) or observes closed and drops. Sending on a closed
// transport panics.
func (t *ChannelTransport) Close() { t.eng.closeEngine() }

// SetHandler installs the message handler of a node.
func (t *ChannelTransport) SetHandler(id NodeID, h Handler) { t.eng.setHandler(id, h) }

// SetDrop installs the drop callback (§4.3 failure detection). The
// callback runs serialized with the handlers of the dispatch group of the
// *sender* (msg.From): failure detection mutates sender-side protocol
// state, so that is the serialization it needs. With a single group this
// is indistinguishable from the old "serialized with all handlers"
// contract.
func (t *ChannelTransport) SetDrop(fn func(*Message)) { t.eng.setDrop(fn) }

// Send counts the message and launches its delivery: a goroutine sleeps
// the scaled link latency and hands the message to the dispatcher of the
// destination's group. Lossy links (LossRate > 0) may swallow it silently
// after counting.
func (t *ChannelTransport) Send(msg *Message) {
	if msg.To < 0 || int(msg.To) >= t.graph.Len() {
		panic(fmt.Sprintf("p2p: send to out-of-range node %d", msg.To))
	}
	if t.eng.isClosed() {
		panic("p2p: send on closed ChannelTransport")
	}
	id := t.nextMsg.Add(1)
	if msg.ID == 0 {
		msg.ID = id
	}
	size := frameSize(msg)
	if t.cfg.LossRate > 0 {
		t.mu.Lock()
		lost := t.rng.Float64() < t.cfg.LossRate
		t.mu.Unlock()
		if lost {
			// Lost on the wire: counted as sent, never delivered. The
			// charge goes to the destination group like a delivered send.
			t.books[t.eng.groupFor(msg.To)].charge(msg.Type, 1, size)
			return
		}
	}
	g, ok := t.eng.beginSend(msg.To)
	if !ok {
		panic("p2p: send on closed ChannelTransport")
	}
	t.books[g].charge(msg.Type, 1, size)
	lat := t.latencyBetween(msg.From, msg.To, t.cfg.DirectLatency)
	delay := time.Duration(lat * float64(t.cfg.LatencyScale))
	go func() {
		if delay > 0 {
			time.Sleep(delay)
		}
		t.eng.groups[g].inbox <- envelope{msg: msg}
	}()
}

// SendNew builds and sends a message.
func (t *ChannelTransport) SendNew(typ string, from, to NodeID, ttl int, payload any) {
	t.Send(&Message{Type: typ, From: from, To: to, TTL: ttl, Payload: payload})
}

// Flood delivers a message of the given type from src to every node within
// ttl hops using Gnutella-style constrained broadcast (§6.2.3). Floods and
// walks are driver-side traversals without a destination group, so their
// hops are charged to group 0's ledger — invisible once Counter/Bytes merge.
func (t *ChannelTransport) Flood(typ string, src NodeID, ttl int, payload any, visit func(NodeID)) map[NodeID]bool {
	return t.flood(t.books[0].chargeHops, typ, src, ttl, visit)
}

// SelectiveWalk performs the §4.1 find-protocol walk.
func (t *ChannelTransport) SelectiveWalk(typ string, src NodeID, maxHops int, accept func(NodeID) bool) WalkResult {
	return t.walk(t.books[0].chargeHops, typ, src, maxHops, accept, t.selective)
}

// Settle blocks until every in-flight message — including messages sent by
// handlers while delivering, rerouted drop callbacks and fired timers —
// has been handled. The per-group handshakes plus a verification pass
// under every group lock order all handler effects (across every dispatch
// group) before Settle returns, so callers may read protocol state without
// further synchronization. Calling Settle from a handler would deadlock
// (the current message never finishes) and panics instead.
func (t *ChannelTransport) Settle() { t.eng.settle() }
