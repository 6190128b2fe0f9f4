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
// The engine owns the dispatch groups — each a serialized execution lane
// with its own inbox, dispatcher goroutine and pending-work count — plus
// the handler table, the drop callback and its routing to the sender's
// group, the timers, the Exec barrier and the Settle/Close quiescence
// logic. What it does NOT own is delivery policy: the embedding transport
// supplies a deliver callback that decides whether a message reaches its
// handler (loss and latency on the channel transport; frame accounting,
// drop echoes and socket routing on TCP) and retires or hands on the
// pending count, because that is where the transports genuinely differ.
//
// Pending work is counted per group under the group's own lock (traffic is
// booked per group too, in the transport's books), so at high message
// rates the groups never contend on shared accounting.

// dispatchGroup is one serialized execution lane: an inbox drained by a
// dedicated dispatcher goroutine, plus the group's pending-work count
// guarded by the group's own lock.
type dispatchGroup struct {
	inbox chan envelope

	mu      sync.Mutex
	cond    *sync.Cond
	pending int // work items sent to this group but not yet fully handled
}

// envelope is one dispatcher work item: a delivered message, a (possibly
// rerouted) drop notification, a driver closure submitted through Exec
// (single-group fast path), a fired timer callback, or an Exec barrier.
type envelope struct {
	msg     *Message
	isDrop  bool // msg was dropped; run the drop callback in this group
	fn      func()
	done    chan struct{}
	timer   func()
	barrier *execBarrier
	origin  string // TCP: address of the remote process the frame came from
}

// execBarrier parks every dispatch group so an Exec closure can run without
// interleaving with any handler.
type execBarrier struct {
	arrived chan struct{} // one token per parked group
	release chan struct{} // closed once the closure has run
}

// dispatchEngine is the shared concurrency core of the goroutine-backed
// transports. See the file comment for the division of labour with the
// embedding transport.
type dispatchEngine struct {
	// deliver handles message envelopes; the transport must retire the
	// group's pending count (finishPending) or hand it on (routeDrop)
	// before returning control to the dispatcher loop's next iteration.
	deliver func(g int, env envelope)

	// hmu guards the handler table and the drop callback. It is a lock of
	// its own, not mu: every delivery reads the table, and mu is already
	// taken once per message by beginSend.
	hmu     sync.Mutex
	handler []Handler
	drop    func(*Message)

	mu      sync.Mutex               // guards groupOf, timers, dispIDs, closed
	groupOf []int                    // node -> dispatch group index
	timers  map[*time.Timer]struct{} // armed After timers, stopped on Close
	dispIDs map[uint64]struct{}      // goroutine ids of the dispatchers
	closed  bool

	groups []*dispatchGroup
	execMu sync.Mutex // serializes Exec barriers across groups
}

// newDispatchEngine builds the groups and starts one dispatcher goroutine
// per group. n is the node count, d the group count (clamped to [1, n]);
// the initial node -> group mapping partitions the id space into
// contiguous blocks (remap replaces it). deliver is the transport's
// delivery policy.
func newDispatchEngine(n, d int, deliver func(g int, env envelope)) *dispatchEngine {
	if d < 1 {
		d = 1
	}
	if n > 0 && d > n {
		d = n
	}
	e := &dispatchEngine{
		deliver: deliver,
		handler: make([]Handler, n),
		groupOf: make([]int, n),
		timers:  make(map[*time.Timer]struct{}),
		dispIDs: make(map[uint64]struct{}),
		groups:  make([]*dispatchGroup, d),
	}
	// Contiguous id blocks: an even split that keeps single-group mode
	// trivially identical to the unsharded transport.
	e.assignGroups(func(id NodeID) int { return int(id) * d / n })
	for g := range e.groups {
		grp := &dispatchGroup{inbox: make(chan envelope, max(n, 1))}
		grp.cond = sync.NewCond(&grp.mu)
		e.groups[g] = grp
	}
	started := make(chan struct{})
	for g := range e.groups {
		go e.dispatch(g, started)
	}
	for range e.groups {
		<-started // dispatcher ids registered before any send can race them
	}
	return e
}

// assignGroups recomputes the node -> group mapping. Caller holds e.mu (or
// is the constructor).
func (e *dispatchEngine) assignGroups(fn func(NodeID) int) {
	d := len(e.groups)
	for i := range e.groupOf {
		g := fn(NodeID(i))
		e.groupOf[i] = ((g % d) + d) % d
	}
}

// groupCount returns the number of dispatch groups (>= 1).
func (e *dispatchEngine) groupCount() int { return len(e.groups) }

// groupFor returns the dispatch group currently owning the node.
func (e *dispatchEngine) groupFor(id NodeID) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.groupOf[id]
}

// remap replaces the node -> group mapping if the engine is still pristine:
// not closed and with no pending work anywhere. It reports whether the
// mapping was applied. Transports layer their own pristineness checks (e.g.
// "no message ever sent") on top.
func (e *dispatchEngine) remap(fn func(NodeID) int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	for _, g := range e.groups {
		g.mu.Lock()
		p := g.pending
		g.mu.Unlock()
		if p != 0 {
			return false
		}
	}
	e.assignGroups(fn)
	return true
}

// beginSend accounts one new work item bound for the node's group and
// returns the group index. It fails (ok = false) when the engine is
// closed. The pending count is incremented before the caller enqueues or
// launches a carrier, so Settle and Close can never miss the item.
func (e *dispatchEngine) beginSend(to NodeID) (g int, ok bool) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0, false
	}
	g = e.groupOf[to]
	grp := e.groups[g]
	grp.mu.Lock()
	grp.pending++
	grp.mu.Unlock()
	e.mu.Unlock()
	return g, true
}

// addPending counts one new work item for group g directly (timer fires,
// cross-group transfers — paths already serialized against Close).
func (e *dispatchEngine) addPending(g int) {
	grp := e.groups[g]
	grp.mu.Lock()
	grp.pending++
	grp.mu.Unlock()
}

// finishPending retires one pending work item of group g, waking
// Settle/Close at quiescence.
func (e *dispatchEngine) finishPending(g int) {
	grp := e.groups[g]
	grp.mu.Lock()
	grp.pending--
	if grp.pending == 0 {
		grp.cond.Broadcast()
	}
	grp.mu.Unlock()
}

// movePending transfers one pending work item from group `from` to group
// `to`. The target is incremented before the source is decremented, so the
// total outstanding count never transiently reads zero — the invariant
// Settle's verification pass relies on.
func (e *dispatchEngine) movePending(to, from int) {
	e.addPending(to)
	e.finishPending(from)
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

// dropFn returns the installed drop callback (nil when none).
func (e *dispatchEngine) dropFn() func(*Message) {
	e.hmu.Lock()
	defer e.hmu.Unlock()
	return e.drop
}

// routeDrop consumes the pending work item group g's dispatcher holds for
// an undeliverable msg by running the drop callback where it belongs:
// callbacks mutate the *sender's* protocol state (§4.3 failure detection),
// so when sender and receiver live in different groups the callback is
// forwarded to the sender's dispatcher instead of running here. The pending
// count moves to the sender's group before the forward, so quiescence
// checks never see the item unaccounted. Must be called on g's dispatcher.
func (e *dispatchEngine) routeDrop(g int, msg *Message) {
	drop := e.dropFn()
	gFrom := g
	if msg.From >= 0 && int(msg.From) < len(e.groupOf) {
		gFrom = e.groupFor(msg.From)
	}
	switch {
	case drop == nil:
	case gFrom == g:
		drop(msg)
	default:
		e.movePending(gFrom, g)
		e.forwardDrop(gFrom, msg)
		return
	}
	e.finishPending(g)
}

// submitDrop is routeDrop for callers outside the dispatch layer (socket
// readers, failed sends), which hold no pending item yet: it counts one for
// the sender's group — with beginSend's closed check, since such callers
// can race Close and must not enqueue on a closed inbox — and forwards the
// drop there.
func (e *dispatchEngine) submitDrop(msg *Message) {
	if g, ok := e.beginSend(msg.From); ok {
		e.forwardDrop(g, msg)
	}
}

// forwardDrop enqueues a drop envelope (already counted as pending) on
// group g. The forward rides its own goroutine so a dispatcher enqueueing
// into a full inbox — its own or another dispatcher's — can never deadlock.
func (e *dispatchEngine) forwardDrop(g int, msg *Message) {
	go func() { e.groups[g].inbox <- envelope{msg: msg, isDrop: true} }()
}

// dispatch drains one group's inbox: message handlers, rerouted drop
// callbacks and fired timers of the group's nodes run here one at a time,
// in arrival order, so their protocol state sees no concurrent mutation.
// Distinct groups run concurrently.
func (e *dispatchEngine) dispatch(g int, started chan<- struct{}) {
	e.mu.Lock()
	e.dispIDs[goid()] = struct{}{}
	e.mu.Unlock()
	started <- struct{}{}
	for env := range e.groups[g].inbox {
		switch {
		case env.barrier != nil:
			// Park until the Exec closure has run on the caller.
			env.barrier.arrived <- struct{}{}
			<-env.barrier.release
		case env.fn != nil:
			env.fn()
			close(env.done)
		case env.timer != nil:
			env.timer()
			e.finishPending(g)
		case env.isDrop:
			if drop := e.dropFn(); drop != nil {
				drop(env.msg)
			}
			e.finishPending(g)
		default:
			e.deliver(g, env)
		}
	}
}

// onDispatcher reports whether the calling goroutine is one of the
// engine's dispatcher goroutines (i.e. we are inside a handler, a drop
// callback or a timer callback).
func (e *dispatchEngine) onDispatcher() bool {
	id := goid()
	e.mu.Lock()
	_, ok := e.dispIDs[id]
	e.mu.Unlock()
	return ok
}

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

// exec submits fn to the dispatch layer and blocks until it has run,
// serialized against every handler: with a single group fn runs on the
// dispatcher goroutine between deliveries; with sharded dispatch every
// group is parked at a barrier and fn runs on the caller while no handler
// anywhere is executing. Calling it from a dispatcher goroutine panics
// (it would deadlock the dispatcher).
func (e *dispatchEngine) exec(fn func()) {
	if e.onDispatcher() {
		panic("p2p: Exec called from a handler/timer on the dispatcher (would deadlock); drivers only")
	}
	e.execMu.Lock()
	defer e.execMu.Unlock()
	if len(e.groups) == 1 {
		// Fast path: identical to the pre-sharding single dispatcher.
		done := make(chan struct{})
		e.groups[0].inbox <- envelope{fn: fn, done: done}
		<-done
		return
	}
	b := &execBarrier{
		arrived: make(chan struct{}, len(e.groups)),
		release: make(chan struct{}),
	}
	for _, g := range e.groups {
		g.inbox <- envelope{barrier: b}
	}
	for range e.groups {
		<-b.arrived
	}
	defer close(b.release) // release even if fn panics
	fn()
}

// after schedules fn on the dispatcher of owner's group once the real-time
// delay elapses. A pending timer does not count as in-flight — Settle does
// not wait for it — but once it fires the callback is counted before the
// engine lock drops, so Close keeps the owning dispatcher alive until the
// envelope has been handled.
func (e *dispatchEngine) after(owner NodeID, delay time.Duration, fn func()) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
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
		g := 0
		if owner >= 0 && int(owner) < len(e.groupOf) {
			g = e.groupOf[owner]
		}
		// Count the callback as pending before releasing the engine lock:
		// Close verifies quiescence under this lock before closing the
		// inboxes, so the owning dispatcher stays alive until this envelope
		// has been handled.
		e.addPending(g)
		e.mu.Unlock()
		e.groups[g].inbox <- envelope{timer: fn}
	})
	e.timers[tm] = struct{}{}
	e.mu.Unlock()
}

// waitIdle blocks until every group's pending count has been observed at
// zero, then verifies quiescence under all locks at once: with the engine
// lock and every group lock held no new work can be accounted, and the
// "increment the target before decrementing the source" transfer invariant
// guarantees that in-flight migrations (cross-group drop reroutes, handler
// sends) are visible in at least one group's count. A failed verification
// restarts the wait — work migrated behind the scan.
func (e *dispatchEngine) waitIdle() {
	for {
		for _, g := range e.groups {
			g.mu.Lock()
			for g.pending > 0 {
				g.cond.Wait()
			}
			g.mu.Unlock()
		}
		if e.verifyIdle() {
			return
		}
	}
}

// verifyIdle checks that every group is pending-free under the engine lock
// plus every group lock (a frozen, consistent snapshot).
func (e *dispatchEngine) verifyIdle() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.verifyIdleLocked()
}

func (e *dispatchEngine) verifyIdleLocked() bool {
	for _, g := range e.groups {
		g.mu.Lock()
	}
	idle := true
	for _, g := range e.groups {
		if g.pending != 0 {
			idle = false
		}
	}
	for _, g := range e.groups {
		g.mu.Unlock()
	}
	return idle
}

// idleNow reports a best-effort snapshot of quiescence without the full
// verification (used by the TCP status protocol, whose two-round stability
// check absorbs the raciness).
func (e *dispatchEngine) idleNow() bool {
	for _, g := range e.groups {
		g.mu.Lock()
		p := g.pending
		g.mu.Unlock()
		if p != 0 {
			return false
		}
	}
	return true
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

// closeEngine shuts every dispatcher down after draining in-flight work,
// and cancels timers that have not fired yet. The final drain verification
// and the shutdown happen under the engine lock, so a timer firing
// concurrently either lands before its inbox closes (pending was
// incremented under the same lock first) or observes closed and drops.
func (e *dispatchEngine) closeEngine() {
	for {
		for _, g := range e.groups {
			g.mu.Lock()
			for g.pending > 0 {
				g.cond.Wait()
			}
			g.mu.Unlock()
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return
		}
		if !e.verifyIdleLocked() {
			e.mu.Unlock()
			continue // work migrated behind the scan; drain again
		}
		e.closed = true
		for tm := range e.timers {
			tm.Stop()
		}
		e.timers = make(map[*time.Timer]struct{})
		for _, g := range e.groups {
			close(g.inbox)
		}
		e.mu.Unlock()
		return
	}
}

// isClosed reports whether Close has completed.
func (e *dispatchEngine) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}
