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
//
// The queue is a typed binary min-heap of pooled event structs compared on
// (time, sequence) directly — no container/heap interface dispatch, no
// per-event handle map. Events cannot be cancelled: every scheduled event
// fires, and a protocol timer that may turn obsolete carries its own guard
// (reconciliation timeouts check a sequence number), so the kernel keeps
// no tombstones and Pending is the heap's length.
package sim

import (
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
}

// before is the queue order: time, then schedule sequence.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap on before. seq is unique per engine,
// so the order is total and pop order is exactly the (time, FIFO)
// schedule order.
type eventQueue []*event

func (q *eventQueue) push(ev *event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	*q = h
}

func (q *eventQueue) pop() *event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(h[c]) {
				c = r
			}
			if !h[c].before(last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	*q = h
	return top
}

// maxFreelist bounds the per-engine event freelist so a burst of scheduled
// events does not pin its high-water mark in memory forever.
const maxFreelist = 1 << 15

// Engine is the sequential simulation kernel. It also serves as one
// region's queue inside a Sharded engine, where its events are executed by
// that region's worker goroutine (never by two goroutines at once).
type Engine struct {
	now    Time
	queue  eventQueue
	seq    uint64
	events uint64   // executed events
	free   []*event // event-struct freelist (hot path: 0 allocs)
	// nowBits mirrors now for cross-goroutine reads (set only on region
	// engines inside a Sharded kernel; nil on a standalone Engine).
	nowBits *atomic.Uint64
}

// New creates an engine at time zero.
func New() *Engine { return &Engine{} }

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
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn at the absolute time at (clamped to now for past
// times).
func (e *Engine) At(at Time, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at, ev.seq, ev.fn = at, e.seq, fn
	e.queue.push(ev)
}

// After schedules fn after the given delay.
func (e *Engine) After(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// nextAt returns the time of the next event.
func (e *Engine) nextAt() (Time, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// fire pops the next event, advances the clock to it, recycles its struct
// (dropping the closure so its captures are collectable at once) and runs
// it. The queue must be non-empty.
func (e *Engine) fire() {
	ev := e.queue.pop()
	e.setNow(ev.at)
	e.events++
	fn := ev.fn
	ev.fn = nil
	if len(e.free) < maxFreelist {
		e.free = append(e.free, ev)
	}
	fn()
}

// Step executes the next event. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	e.fire()
	return true
}

// runWindow executes every event with at < end in (time, seq) order,
// advancing the clock event by event. Inside a Sharded kernel this is one
// region's share of a lockstep window; end is the window boundary, so
// events scheduled during the window for t >= end stay queued.
func (e *Engine) runWindow(end Time) {
	for len(e.queue) > 0 && e.queue[0].at < end {
		e.fire()
	}
}

// RunUntil executes events until the queue is empty or the next event is
// past the horizon. The clock is advanced to the horizon.
func (e *Engine) RunUntil(horizon Time) {
	for len(e.queue) > 0 && e.queue[0].at <= horizon {
		e.fire()
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
