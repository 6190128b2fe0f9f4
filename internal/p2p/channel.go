package p2p

import (
	"fmt"
	"sync/atomic"
	"time"

	"p2psum/internal/liveness"
	"p2psum/internal/topology"
)

// ChannelConfig tunes the concurrent in-memory transport.
type ChannelConfig struct {
	// LatencyScale maps one virtual second of link latency onto real time.
	// Overlay link latencies are 0.01–0.2 virtual seconds, so 1ms yields
	// 10–200µs sleeps per hop — real concurrency without making protocol
	// runs crawl. Zero delivers as fast as the scheduler allows (messages
	// still traverse goroutines and may interleave).
	LatencyScale time.Duration
}

// ChannelTransport is the concurrent, real-time Transport: every unicast is
// carried by its own goroutine that sleeps the scaled link latency and then
// hands the message to the transport's one dispatcher goroutine, which runs
// handlers, drop callbacks and timers sequentially. Protocol handlers
// (which mutate per-node protocol state) therefore need no internal
// locking — the same contract the discrete-event Network gives them, "one
// global serial order". Driver code (Exec, Settle, the gateway's sessions)
// runs on goroutines of its own beside that lane.
//
// Unlike Network, runs are not deterministic: wall-clock scheduling decides
// the delivery interleaving of same-window messages. Use it for scenarios
// the event engine cannot express (real elapsed time, concurrent load);
// use Network when bit-for-bit reproducibility matters, packet loss
// included (Network.SetLossRate).
//
// Close must be called when the transport is no longer needed, or the
// dispatcher goroutine leaks.
type ChannelTransport struct {
	overlay
	ledger
	cfg     ChannelConfig
	eng     *dispatchEngine
	nextMsg atomic.Uint64
}

// NewChannelTransport builds a concurrent transport over the graph. All
// nodes start online. The dispatcher goroutine starts immediately. The
// transport draws nothing at random, so seed is unused; it stays in the
// signature for the callers that pass one.
func NewChannelTransport(graph *topology.Graph, seed int64, cfg ChannelConfig) *ChannelTransport {
	if cfg.LatencyScale < 0 {
		cfg.LatencyScale = 0
	}
	n := graph.Len()
	t := &ChannelTransport{
		overlay: overlay{graph: graph, view: liveness.NewView(n, nil)},
		cfg:     cfg,
	}
	t.hops = t.chargeHops
	t.eng = newDispatchEngine(n, t.deliver)
	return t
}

// deliver hands one message to its destination handler, or — destination
// offline, handler-less or behind a severed link — to the drop callback
// (§4.3 failure detection).
func (t *ChannelTransport) deliver(env envelope) {
	msg := env.msg
	if h := t.eng.handlerOf(msg.To); h != nil && t.deliverable(msg.From, msg.To) {
		h(msg)
		return
	}
	t.eng.runDrop(msg)
}

// Exec submits fn to the dispatcher and blocks until it has run there,
// between deliveries, serialized against every handler. Driver code that
// mutates protocol state (leave, join, construction) goes through here so
// it never interleaves with a handler.
//
// Calling Exec from inside a handler, drop callback, timer callback or
// Exec'd closure would deadlock the dispatcher — the current work item can
// never finish while Exec waits for it — so that misuse panics instead.
func (t *ChannelTransport) Exec(fn func()) { t.eng.exec(fn) }

// After schedules fn on the dispatcher, delaySeconds of virtual time from
// now (scaled by LatencyScale like link latencies; with LatencyScale 0 —
// deliver-as-fast-as-possible mode — timers fall back to the default
// 1ms/virtual-second scale so a timeout still fires after, not before, the
// messages it guards). fn is serialized with every handler, which is what
// protocol timers need: they mutate the arming node's (owner's) state. A
// pending timer does not count as in-flight — Settle does not wait for it
// — but once the real-time delay elapses, fn runs on the dispatcher and a
// concurrent Settle blocks until it has run. A zero delay arms no timer:
// fn counts as in flight at once, so Settle waits for it. Close cancels
// every armed timer; timers that already fired observe the closed
// transport and are dropped.
func (t *ChannelTransport) After(owner NodeID, delaySeconds float64, fn func()) {
	scale := t.cfg.LatencyScale
	if scale <= 0 {
		scale = time.Millisecond
	}
	t.eng.after(time.Duration(delaySeconds*float64(scale)), fn)
}

// Close shuts the dispatcher down after draining in-flight messages and
// fired timers, and cancels timers that have not fired yet, so armed
// timers do not linger in the runtime just to observe the closed flag.
// The drain and the shutdown happen under the engine lock, so a timer
// firing concurrently either lands before the inbox closes (pending was
// incremented first) or observes closed and drops. Sending on a closed
// transport panics.
func (t *ChannelTransport) Close() { t.eng.closeEngine() }

// SetHandler installs the message handler of a node.
func (t *ChannelTransport) SetHandler(id NodeID, h Handler) { t.eng.setHandler(id, h) }

// SetDrop installs the drop callback (§4.3 failure detection). The
// callback runs on the dispatcher, serialized with every handler: failure
// detection mutates the sender's (msg.From's) protocol state.
func (t *ChannelTransport) SetDrop(fn func(*Message)) { t.eng.setDrop(fn) }

// Send counts the message and launches its delivery: a goroutine sleeps
// the scaled link latency and hands the message to the dispatcher.
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
	if !t.eng.beginSend() {
		panic("p2p: send on closed ChannelTransport")
	}
	t.charge(msg.Type, 1, size)
	lat := t.latencyBetween(msg.From, msg.To)
	delay := time.Duration(lat * float64(t.cfg.LatencyScale))
	go func() {
		if delay > 0 {
			time.Sleep(delay)
		}
		t.eng.inbox <- envelope{msg: msg}
	}()
}

// SendNew builds and sends a message.
func (t *ChannelTransport) SendNew(typ string, from, to NodeID, ttl int, payload any) {
	t.Send(&Message{Type: typ, From: from, To: to, TTL: ttl, Payload: payload})
}

// Settle blocks until every in-flight message — including messages sent by
// handlers while delivering, drop callbacks and fired timers — has been
// handled. The pending count is retired under the engine lock after each
// item's effects, so callers may read protocol state without further
// synchronization once Settle returns. Calling Settle from a handler would
// deadlock (the current message never finishes) and panics instead.
func (t *ChannelTransport) Settle() { t.eng.settle() }
