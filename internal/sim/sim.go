// Package sim is a deterministic discrete-event simulation engine, the
// stand-in for the SimJava package the paper's evaluation uses (§6.2.1).
//
// Events carry a virtual timestamp and a callback; the engine pops them in
// (time, sequence) order, so runs are reproducible bit-for-bit given the
// same seed and schedule. The P2P overlay delivers messages by scheduling
// their reception after a per-link latency.
//
// Engine is one heap driven by one goroutine: every callback runs on the
// goroutine that calls Step, RunUntil or Run, so protocol state touched
// only from callbacks needs no locks.
//
// The queue is a typed binary min-heap of event values compared on
// (time, sequence) directly — no container/heap interface dispatch, no
// per-event handle map, no pointer per event to chase or pool. Events
// cannot be cancelled: every scheduled event fires, and a protocol timer
// that may turn obsolete carries its own guard (reconciliation timeouts
// check a sequence number), so the kernel keeps no tombstones and Pending
// is the heap's length.
package sim

import (
	"math"
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

// event is a scheduled callback. Events live by value in the heap's
// backing array, so the hot dispatch path (schedule, pop, run) allocates
// nothing once the array has grown to the run's high-water mark —
// BenchmarkEventDispatch pins 0 allocs/op and CI gates it.
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
type eventQueue []event

func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	*q = h
}

// pop removes and returns the earliest event. The vacated slot is zeroed
// so the heap's spare capacity pins no fired closure.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(&h[c]) {
				c = r
			}
			if !h[c].before(&last) {
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

// Engine is the sequential simulation kernel.
type Engine struct {
	now    Time
	queue  eventQueue
	seq    uint64
	events uint64 // executed events
}

// New creates an engine at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

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
	e.queue.push(event{at: at, seq: e.seq, fn: fn})
}

// After schedules fn after the given delay.
func (e *Engine) After(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// fire pops the next event, advances the clock to it and runs it. The
// queue must be non-empty.
func (e *Engine) fire() {
	ev := e.queue.pop()
	e.now = ev.at
	e.events++
	ev.fn()
}

// Step executes the next event. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	e.fire()
	return true
}

// RunUntil executes events until the queue is empty or the next event is
// past the horizon. The clock is advanced to the horizon.
func (e *Engine) RunUntil(horizon Time) {
	for len(e.queue) > 0 && e.queue[0].at <= horizon {
		e.fire()
	}
	if e.now < horizon {
		e.now = horizon
	}
}

// Run executes every scheduled event to exhaustion.
func (e *Engine) Run() {
	for e.Step() {
	}
}
