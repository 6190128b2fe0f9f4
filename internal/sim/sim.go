// Package sim is a deterministic discrete-event simulation engine, the
// stand-in for the SimJava package the paper's evaluation uses (§6.2.1).
//
// Events carry a virtual timestamp and a callback; the engine pops them in
// (time, sequence) order, so runs are reproducible bit-for-bit given the
// same seed and schedule. The P2P overlay delivers messages by scheduling
// their reception after a per-link latency.
//
// Two kernels share the event-queue machinery: Engine is the sequential
// kernel (one heap, one goroutine), and Sharded (sharded.go) partitions the
// overlay into regions — one Engine per region — advanced in conservative
// lockstep time windows so intra-region events execute in parallel.
package sim

import (
	"container/heap"
	"math"
	"sync/atomic"
	"time"
)

// Time is virtual simulation time. It is an absolute offset from the
// simulation start.
type Time float64

// Seconds converts a duration in seconds into virtual time.
func Seconds(s float64) Time { return Time(s) }

// Minutes converts minutes into virtual time.
func Minutes(m float64) Time { return Time(m * 60) }

// Hours converts hours into virtual time.
func Hours(h float64) Time { return Time(h * 3600) }

// Duration converts a time.Duration into virtual time.
func Duration(d time.Duration) Time { return Time(d.Seconds()) }

// End is the largest representable time.
const End Time = Time(math.MaxFloat64)

// Event is a scheduled callback. Structs are pooled on a per-engine
// freelist: the hot dispatch path (schedule, pop, run) allocates nothing
// once the freelist is warm — BenchmarkEventDispatch pins 0 allocs/op and
// CI gates it.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among same-time events
	fn  func()
	id  uint64
	off bool // cancelled: dropped lazily when it reaches the heap top
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// maxFreelist bounds the per-engine event freelist so a burst of scheduled
// events does not pin its high-water mark in memory forever.
const maxFreelist = 1 << 15

// Engine is the sequential simulation kernel. It also serves as one
// region's queue inside a Sharded engine, where its events are executed by
// that region's worker goroutine (never by two goroutines at once).
type Engine struct {
	now     Time
	queue   eventQueue
	seq     uint64
	nextID  uint64
	pending map[uint64]*event
	events  uint64   // executed events
	free    []*event // event-struct freelist (hot path: 0 allocs)
	// nowBits mirrors now for cross-goroutine reads (set only on region
	// engines inside a Sharded kernel; nil on a standalone Engine).
	nowBits *atomic.Uint64
}

// New creates an engine at time zero.
func New() *Engine {
	return &Engine{pending: make(map[uint64]*event)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// setNow advances the clock (and its atomic mirror when present).
func (e *Engine) setNow(t Time) {
	e.now = t
	if e.nowBits != nil {
		e.nowBits.Store(math.Float64bits(float64(t)))
	}
}

// advanceTo moves the clock forward to t (never backward).
func (e *Engine) advanceTo(t Time) {
	if t > e.now {
		e.setNow(t)
	}
}

// Executed returns the number of events processed so far.
func (e *Engine) Executed() uint64 { return e.events }

// Pending returns the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int { return len(e.pending) }

// alloc takes an event struct off the freelist (or the heap when cold).
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// recycle returns a popped event to the freelist, dropping its closure so
// the callback's captures are collectable immediately.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	if len(e.free) < maxFreelist {
		e.free = append(e.free, ev)
	}
}

// At schedules fn at the absolute time at (clamped to now for past times)
// and returns a handle usable with Cancel.
func (e *Engine) At(at Time, fn func()) uint64 {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.nextID++
	ev := e.alloc()
	ev.at, ev.seq, ev.fn, ev.id, ev.off = at, e.seq, fn, e.nextID, false
	heap.Push(&e.queue, ev)
	e.pending[ev.id] = ev
	return ev.id
}

// After schedules fn after the given delay.
func (e *Engine) After(delay Time, fn func()) uint64 {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// Cancel drops a scheduled event: O(1) — the pending entry is removed at
// once, the heap slot is marked and reclaimed lazily when it surfaces at
// the top (no scan, no immediate re-heapify). Cancelling an already-fired
// or unknown handle is a no-op.
func (e *Engine) Cancel(id uint64) {
	if ev, ok := e.pending[id]; ok {
		ev.off = true
		ev.fn = nil // release the closure now, not when the slot surfaces
		delete(e.pending, id)
	}
}

// peekLive returns the next live event without popping it, lazily
// discarding cancelled slots that have reached the heap top.
func (e *Engine) peekLive() *event {
	for len(e.queue) > 0 {
		ev := e.queue[0]
		if !ev.off {
			return ev
		}
		heap.Pop(&e.queue)
		e.recycle(ev)
	}
	return nil
}

// nextAt returns the time of the next live event.
func (e *Engine) nextAt() (Time, bool) {
	if ev := e.peekLive(); ev != nil {
		return ev.at, true
	}
	return 0, false
}

// Step executes the next event. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	ev := e.peekLive()
	if ev == nil {
		return false
	}
	heap.Pop(&e.queue)
	delete(e.pending, ev.id)
	e.setNow(ev.at)
	e.events++
	fn := ev.fn
	e.recycle(ev)
	fn()
	return true
}

// runWindow executes every live event with at < end in (time, seq) order,
// advancing the clock event by event. Inside a Sharded kernel this is one
// region's share of a lockstep window; end is the window boundary, so
// events scheduled during the window for t >= end stay queued.
func (e *Engine) runWindow(end Time) {
	for {
		ev := e.peekLive()
		if ev == nil || ev.at >= end {
			return
		}
		heap.Pop(&e.queue)
		delete(e.pending, ev.id)
		e.setNow(ev.at)
		e.events++
		fn := ev.fn
		e.recycle(ev)
		fn()
	}
}

// RunUntil executes events until the queue is empty or the next event is
// past the horizon. The clock is advanced to the horizon.
func (e *Engine) RunUntil(horizon Time) {
	for {
		t, ok := e.nextAt()
		if !ok || t > horizon {
			break
		}
		e.Step()
	}
	if e.now < horizon {
		e.setNow(horizon)
	}
}

// Run executes every scheduled event to exhaustion.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Ticker repeatedly invokes fn every period until Stop is called or the
// engine drains. The first invocation happens after one period.
type Ticker struct {
	engine  *Engine
	period  Time
	fn      func()
	handle  uint64
	stopped bool
}

// Tick starts a periodic callback.
func (e *Engine) Tick(period Time, fn func()) *Ticker {
	t := &Ticker{engine: e, period: period, fn: fn}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.handle = t.engine.After(t.period, func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	})
}

// Stop cancels the ticker.
func (t *Ticker) Stop() {
	t.stopped = true
	t.engine.Cancel(t.handle)
}
