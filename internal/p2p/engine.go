package p2p

import (
	"runtime"
	"sync"
	"time"
)

// This file holds the dispatch engine: the handler-serialization machinery
// shared by the concurrent transports. ChannelTransport (in-memory,
// goroutine delivery) and TCPTransport (real sockets) both embed it; the
// deterministic Network needs none of this because the discrete-event
// engine is single-threaded.
//
// The engine is one serialized lane: one inbox drained by one dispatcher
// goroutine, plus the pending-work count Settle and Close wait on, all
// under one lock. It owns the handler table, the drop callback, the
// timers, Exec and the Settle/Close quiescence logic. What it does NOT own
// is delivery policy: the embedding transport supplies a deliver callback
// that decides whether a message reaches its handler (loss and latency on
// the channel transport; frame accounting, drop echoes and socket routing
// on TCP), because that is where the transports genuinely differ. The
// engine retires the message's pending count once deliver returns.

// envelope is one dispatcher work item: a delivered message, a drop
// notification, a driver closure submitted through Exec, or a fired timer
// callback.
type envelope struct {
	msg    *Message
	isDrop bool // msg was dropped; run the drop callback
	fn     func()
	done   chan struct{}
	timer  func()
	origin *tcpConn // TCP: the connection the frame arrived on
}

// dispatchEngine is the shared concurrency core of the goroutine-backed
// transports. See the file comment for the division of labour with the
// embedding transport.
type dispatchEngine struct {
	// deliver handles message envelopes on the dispatcher: it runs the
	// destination's handler or the drop callback (runDrop).
	deliver func(env envelope)

	// hmu guards the handler table and the drop callback. It is a lock of
	// its own, not mu: every delivery reads the table, and mu is already
	// taken twice per message (beginSend, finishPending).
	hmu     sync.Mutex
	handler []Handler
	drop    func(*Message)

	mu      sync.Mutex // guards pending, timers, closed
	idle    sync.Cond  // broadcast when pending reaches zero
	pending int        // work items sent but not yet fully handled
	timers  map[*time.Timer]struct{}
	closed  bool

	inbox  chan envelope
	dispID uint64 // goroutine id of the dispatcher, set before any send
}

// newDispatchEngine builds the lane for n nodes and starts its dispatcher
// goroutine. deliver is the transport's delivery policy.
func newDispatchEngine(n int, deliver func(env envelope)) *dispatchEngine {
	e := &dispatchEngine{
		deliver: deliver,
		handler: make([]Handler, n),
		timers:  make(map[*time.Timer]struct{}),
		// One slot per node, so a socket reader or a burst of carriers
		// rarely waits on a busy dispatcher.
		inbox: make(chan envelope, max(n, 1)),
	}
	e.idle.L = &e.mu
	started := make(chan struct{})
	go e.dispatch(started)
	<-started // dispatcher id recorded before any caller can compare it
	return e
}

// beginSend accounts one new work item. It fails (false) when the engine
// is closed. The pending count is incremented before the caller enqueues
// or launches a carrier, so Settle and Close can never miss the item.
func (e *dispatchEngine) beginSend() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.pending++
	return true
}

// finishPending retires one pending work item, waking Settle/Close at
// quiescence.
func (e *dispatchEngine) finishPending() {
	e.mu.Lock()
	if e.pending--; e.pending == 0 {
		e.idle.Broadcast()
	}
	e.mu.Unlock()
}

// setHandler installs the message handler of a node.
func (e *dispatchEngine) setHandler(id NodeID, h Handler) {
	e.hmu.Lock()
	e.handler[id] = h
	e.hmu.Unlock()
}

// setDrop installs the drop callback.
func (e *dispatchEngine) setDrop(fn func(*Message)) {
	e.hmu.Lock()
	e.drop = fn
	e.hmu.Unlock()
}

// handlerOf returns the node's installed handler (nil when none).
func (e *dispatchEngine) handlerOf(id NodeID) Handler {
	e.hmu.Lock()
	defer e.hmu.Unlock()
	return e.handler[id]
}

// runDrop runs the installed drop callback (if any) for msg. Callers are
// on the dispatcher, so the callback is serialized with every handler.
func (e *dispatchEngine) runDrop(msg *Message) {
	e.hmu.Lock()
	drop := e.drop
	e.hmu.Unlock()
	if drop != nil {
		drop(msg)
	}
}

// submitDrop hands a drop notification to the lane from outside a
// delivery (socket readers, failed sends): it counts the work item — with
// beginSend's closed check, since such callers can race Close and must not
// enqueue on a closed inbox — and enqueues it from a goroutine of its own,
// so a caller on the dispatcher can never block on its own full inbox.
func (e *dispatchEngine) submitDrop(msg *Message) {
	if e.beginSend() {
		go func() { e.inbox <- envelope{msg: msg, isDrop: true} }()
	}
}

// dispatch drains the inbox: message handlers, drop callbacks, Exec
// closures and fired timers run here one at a time, in arrival order, so
// protocol state sees no concurrent mutation from them.
func (e *dispatchEngine) dispatch(started chan<- struct{}) {
	e.dispID = goid()
	close(started)
	for env := range e.inbox {
		switch {
		case env.fn != nil:
			env.fn()
			close(env.done)
			continue // Exec closures are not counted as pending
		case env.timer != nil:
			env.timer()
		case env.isDrop:
			e.runDrop(env.msg)
		default:
			e.deliver(env)
		}
		e.finishPending()
	}
}

// onDispatcher reports whether the calling goroutine is the engine's
// dispatcher (i.e. we are inside a handler, a drop callback, a timer
// callback or an Exec closure).
func (e *dispatchEngine) onDispatcher() bool { return goid() == e.dispID }

// goid parses the calling goroutine's id from its stack header. It is only
// used on driver entry points (Exec, Settle) to turn silent deadlocks into
// a diagnosable panic, never on the per-message path.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id uint64
	for _, c := range buf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// exec submits fn to the lane and blocks until it has run on the
// dispatcher goroutine between deliveries, serialized against every
// handler. Calling it from the dispatcher panics (it would deadlock).
func (e *dispatchEngine) exec(fn func()) {
	if e.onDispatcher() {
		panic("p2p: Exec called from a handler/timer on the dispatcher (would deadlock); drivers only")
	}
	done := make(chan struct{})
	e.inbox <- envelope{fn: fn, done: done}
	<-done
}

// after schedules fn on the dispatcher once the real-time delay elapses.
// A pending timer does not count as in-flight — Settle does not wait for
// it — but once it fires the callback is counted before the engine lock
// drops, so Close keeps the dispatcher alive until the envelope has been
// handled. A zero delay arms no timer: fn is work already due, counted at
// once like a sent message, so a Settle that follows waits for it (and
// for whatever it arms in turn) just as the event engine runs a timer due
// now.
func (e *dispatchEngine) after(delay time.Duration, fn func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	if delay <= 0 {
		e.pending++
		// A goroutine carries it, as it carries a drop: the caller may be
		// the dispatcher, and the inbox may be full.
		go func() { e.inbox <- envelope{timer: fn} }()
		return
	}
	var tm *time.Timer
	tm = time.AfterFunc(delay, func() {
		e.mu.Lock()
		delete(e.timers, tm)
		if e.closed {
			e.mu.Unlock()
			return
		}
		e.pending++
		e.mu.Unlock()
		e.inbox <- envelope{timer: fn}
	})
	e.timers[tm] = struct{}{}
}

// waitIdle blocks until the pending count has been observed at zero.
func (e *dispatchEngine) waitIdle() {
	e.mu.Lock()
	for e.pending > 0 {
		e.idle.Wait()
	}
	e.mu.Unlock()
}

// idleNow reports whether no work is pending at this instant (the TCP
// status protocol's snapshot; its two-round stability check absorbs the
// raciness).
func (e *dispatchEngine) idleNow() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pending == 0
}

// settle blocks until every in-flight work item (and everything sent while
// handling it) has been handled. Calling it from a handler would deadlock
// and panics instead.
func (e *dispatchEngine) settle() {
	if e.onDispatcher() {
		panic("p2p: Settle called from a handler/timer on the dispatcher (would deadlock); drivers only")
	}
	e.waitIdle()
}

// closeEngine shuts the dispatcher down after draining in-flight work, and
// cancels timers that have not fired yet. The drain and the shutdown
// happen under the engine lock, so a timer firing concurrently either
// lands before the inbox closes (pending was incremented under the same
// lock first) or observes closed and drops.
func (e *dispatchEngine) closeEngine() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.pending > 0 {
		e.idle.Wait()
	}
	if e.closed {
		return
	}
	e.closed = true
	for tm := range e.timers {
		tm.Stop()
	}
	clear(e.timers)
	close(e.inbox)
}

// isClosed reports whether Close has completed.
func (e *dispatchEngine) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}
