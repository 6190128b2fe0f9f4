package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Sharded is the parallel event kernel: the node set is partitioned into
// regions, each region owns a sequential Engine (heap + clock), and the
// kernel advances every region in barrier-separated time windows
// [min, min+lookahead) inside which regions cannot affect each other.
//
// The conservation argument: lookahead is chosen (by the caller, e.g.
// p2p.Network.SetGroupBy) as the minimum latency of any cross-region
// link. An event executing at time t >= windowStart that sends across
// regions schedules the delivery at t + lat >= windowStart + lookahead
// = windowEnd — always a later window. So within one window the regions
// share nothing, and intra-region events run in parallel across region
// worker goroutines while keeping the sequential engine's exact
// (time, seq) order inside each region.
//
// Cross-region handoff: Schedule routes same-region events straight onto
// the owner's heap (only the owning worker, or the idle driver, touches
// it) and stages cross-region events in the destination's mutex-guarded
// inbox. At each window barrier the coordinator drains every inbox,
// stable-sorts the staged entries by (time, source region) and pushes
// them onto the target heap in that order — deterministic regardless of
// which worker finished first, so runs are reproducible bit-for-bit.
type Sharded struct {
	regions   []*Engine
	inboxes   []regionInbox
	partition []int32
	lookahead Time
	started   bool
	running   bool // inside run(): staging comes from worker context
	staged    atomic.Int64
	// work[r] hands region r's persistent worker the end of the window
	// to execute (workerStop terminates it); workers says whether they
	// are running, wg is the window barrier.
	work    []chan Time
	workers bool
	wg      sync.WaitGroup
	// Coordinator scratch, reused across windows: the barrier allocates
	// nothing in steady state (BenchmarkWindowBarrier gates allocs at 0).
	act    []int
	sorter stagedSorter
	stats  ShardedStats
}

// ShardedStats counts what the parallel kernel did across Run/RunUntil
// calls. Read it from driver context via Stats().
type ShardedStats struct {
	// Windows is the number of barrier-separated execution windows.
	Windows uint64
	// CausalityViolations counts in-run cross-region handoffs that
	// arrived below their target's committed clock and were clamped to
	// it. Zero under the pure kernel contract (every send based on the
	// sending region's own clock plus at least the lookahead — the sim
	// tests assert it); the protocol stack's documented
	// contract-bending paths (drop callbacks sending on behalf of a
	// remote region, reading that region's clock mirror mid-window)
	// produce a few, absorbed by the same clamp the sequential engine
	// applies to past schedules.
	CausalityViolations uint64
}

// Stats returns the kernel counters. Driver context only.
func (s *Sharded) Stats() ShardedStats { return s.stats }

// stagedSorter orders one inbox's drained entries by (time, source
// region). It lives on the Sharded struct so the sort.Stable interface
// conversion reuses one allocation for the life of the kernel — the
// window barrier is a 0 allocs/op path (BenchmarkWindowBarrier).
type stagedSorter struct{ entries []stagedEvent }

func (d *stagedSorter) Len() int { return len(d.entries) }
func (d *stagedSorter) Less(i, j int) bool {
	if d.entries[i].at != d.entries[j].at {
		return d.entries[i].at < d.entries[j].at
	}
	return d.entries[i].src < d.entries[j].src
}
func (d *stagedSorter) Swap(i, j int) {
	d.entries[i], d.entries[j] = d.entries[j], d.entries[i]
}

// stagedEvent is one cross-region handoff awaiting the window barrier.
type stagedEvent struct {
	at    Time
	src   int32 // sending region: part of the deterministic drain order
	inRun bool  // staged from worker context (causality accounting applies)
	fn    func()
}

type regionInbox struct {
	mu      sync.Mutex
	entries []stagedEvent
	spare   []stagedEvent // swap buffer: drain allocates nothing
}

// DefaultLookahead is the window width before SetPartition provides the
// real minimum cross-region latency. With the initial single-region
// partition no event ever crosses regions, so any positive value is
// conservative.
const DefaultLookahead Time = 0.1

// NewSharded creates a parallel kernel for nodes 0..nodes-1 split into
// the given number of regions. All nodes start in region 0; call
// SetPartition before scheduling to spread them.
func NewSharded(nodes, regions int) (*Sharded, error) {
	if regions < 1 {
		return nil, fmt.Errorf("sim: region count %d < 1", regions)
	}
	if nodes < 0 {
		return nil, fmt.Errorf("sim: negative node count %d", nodes)
	}
	s := &Sharded{
		regions:   make([]*Engine, regions),
		inboxes:   make([]regionInbox, regions),
		partition: make([]int32, nodes),
		lookahead: DefaultLookahead,
		work:      make([]chan Time, regions),
		act:       make([]int, 0, regions),
	}
	for i := range s.regions {
		e := New()
		e.nowBits = new(atomic.Uint64)
		s.regions[i] = e
		s.work[i] = make(chan Time, 1)
	}
	return s, nil
}

// Regions returns the region count.
func (s *Sharded) Regions() int { return len(s.regions) }

// RegionOf returns the region owning a node.
func (s *Sharded) RegionOf(node int) int { return int(s.partition[node]) }

// Lookahead returns the window width.
func (s *Sharded) Lookahead() Time { return s.lookahead }

// SetPartition installs a node→region mapping and the lookahead bound
// (the minimum cross-region link latency). It must be called before any
// event is scheduled: events already routed under the old mapping would
// sit on the wrong heaps.
func (s *Sharded) SetPartition(part []int, lookahead Time) error {
	if len(part) != len(s.partition) {
		return fmt.Errorf("sim: partition covers %d nodes, kernel has %d", len(part), len(s.partition))
	}
	if lookahead <= 0 {
		return errors.New("sim: lookahead must be positive")
	}
	if s.started || s.Pending() > 0 {
		return errors.New("sim: cannot repartition after events were scheduled")
	}
	for i, r := range part {
		if r < 0 || r >= len(s.regions) {
			return fmt.Errorf("sim: node %d mapped to region %d of %d", i, r, len(s.regions))
		}
		s.partition[i] = int32(r)
	}
	s.lookahead = lookahead
	return nil
}

// RegionNow returns a region's clock. Safe from any goroutine (atomic
// read), including cross-region reads while a window is executing.
func (s *Sharded) RegionNow(r int) Time {
	return Time(math.Float64frombits(s.regions[r].nowBits.Load()))
}

// Now returns the most advanced region clock — after Run/RunUntil all
// regions agree and this matches the sequential engine's Now.
func (s *Sharded) Now() Time {
	var m Time
	for r := range s.regions {
		if t := s.RegionNow(r); t > m {
			m = t
		}
	}
	return m
}

// Executed returns the total events processed across regions.
func (s *Sharded) Executed() uint64 {
	var n uint64
	for _, e := range s.regions {
		n += e.events
	}
	return n
}

// Pending returns the scheduled, not-yet-fired events across all region
// heaps plus staged cross-region handoffs.
func (s *Sharded) Pending() int {
	n := int(s.staged.Load())
	for _, e := range s.regions {
		n += e.Pending()
	}
	return n
}

// Schedule routes an event owned by node dst, originating at node src,
// to dst's region at absolute time at. Same-region events go straight
// onto the owner's heap; cross-region events are staged for the next
// window barrier.
//
// Callers must hold the conservative-execution contract: Schedule is
// invoked either from an event executing in src's region worker, or from
// the driver goroutine while no window is running.
func (s *Sharded) Schedule(src, dst int, at Time, fn func()) {
	rs, rd := s.partition[src], s.partition[dst]
	if rs == rd {
		s.regions[rd].At(at, fn)
		return
	}
	ib := &s.inboxes[rd]
	ib.mu.Lock()
	ib.entries = append(ib.entries, stagedEvent{at: at, src: rs, inRun: s.running, fn: fn})
	ib.mu.Unlock()
	s.staged.Add(1)
}

// drainInboxes moves staged cross-region events onto their target heaps
// in deterministic (time, source region) order. Runs on the coordinator
// between windows, when all workers are idle. An in-run staged entry
// landing below its target's committed clock is a causality violation
// (the conservative contract was broken by the caller); it is clamped
// like a driver-context past schedule and counted in Stats.
func (s *Sharded) drainInboxes() {
	for d := range s.inboxes {
		ib := &s.inboxes[d]
		ib.mu.Lock()
		entries := ib.entries
		ib.entries = ib.spare[:0]
		ib.spare = entries
		ib.mu.Unlock()
		if len(entries) == 0 {
			continue
		}
		s.sorter.entries = entries
		sort.Stable(&s.sorter)
		s.sorter.entries = nil
		e := s.regions[d]
		for i := range entries {
			at := entries[i].at
			if at < e.now {
				if entries[i].inRun {
					s.stats.CausalityViolations++
				}
				at = e.now
			}
			e.At(at, entries[i].fn)
			entries[i].fn = nil
		}
		s.staged.Add(int64(-len(entries)))
	}
}

// minNext returns the earliest event time across regions.
func (s *Sharded) minNext() (Time, bool) {
	var m Time
	ok := false
	for _, e := range s.regions {
		if t, live := e.nextAt(); live && (!ok || t < m) {
			m, ok = t, true
		}
	}
	return m, ok
}

// window executes [min, end) across the regions whose next event falls
// inside it: inline on the coordinator when only one region has work
// (the common case for sparse traffic — no handoff, no wakeup),
// otherwise fanned to the persistent per-region workers with a
// WaitGroup barrier.
func (s *Sharded) window(end Time) {
	s.stats.Windows++
	s.act = s.act[:0]
	for r, e := range s.regions {
		if t, ok := e.nextAt(); ok && t < end {
			s.act = append(s.act, r)
		}
	}
	if len(s.act) == 1 {
		s.regions[s.act[0]].runWindow(end)
		return
	}
	s.startWorkers()
	s.wg.Add(len(s.act))
	for _, r := range s.act {
		s.work[r] <- end
	}
	s.wg.Wait()
}

// startWorkers lazily spawns the persistent per-region workers the first
// time a run hits a multi-participant window. They live until the run
// ends (stopWorkers), parked on their work channel between windows, so
// the steady-state barrier spawns no goroutines.
func (s *Sharded) startWorkers() {
	if s.workers {
		return
	}
	s.workers = true
	for r := range s.work {
		go s.workerLoop(r)
	}
}

// workerStop is the sentinel window end that terminates a worker; no
// real window end is negative.
const workerStop Time = -1

func (s *Sharded) workerLoop(r int) {
	for end := range s.work[r] {
		if end == workerStop {
			return
		}
		s.regions[r].runWindow(end)
		s.wg.Done()
	}
}

// stopWorkers terminates the persistent workers at the end of a run.
func (s *Sharded) stopWorkers() {
	if !s.workers {
		return
	}
	for r := range s.work {
		s.work[r] <- workerStop
	}
	s.workers = false
}

// run is the coordinator loop: drain inboxes, open the next window at
// the earliest pending event, execute it across the regions that have
// work in it, repeat. The window start always snaps to the earliest
// pending event, so idle stretches cost no empty windows.
func (s *Sharded) run(horizon Time) {
	s.started = true
	s.running = true
	// limit is the exclusive window bound that still admits events at
	// exactly the horizon, matching the sequential RunUntil contract
	// (execute events with at <= horizon).
	limit := Time(math.Nextafter(float64(horizon), math.Inf(1)))
	s.drainInboxes()
	for {
		min, ok := s.minNext()
		if !ok || min > horizon {
			break
		}
		end := min + s.lookahead
		if end > limit {
			end = limit
		}
		s.window(end)
		s.drainInboxes()
	}
	s.stopWorkers()
	s.running = false
	// Equalize the clocks at the most advanced one so driver-context
	// scheduling after the run bases its delays on the same time a
	// sequential engine would report.
	m := s.Now()
	for _, e := range s.regions {
		e.advanceTo(m)
	}
}

// Run executes every scheduled event to exhaustion, like Engine.Run.
func (s *Sharded) Run() { s.run(End) }

// RunUntil executes events up to and including the horizon, then
// advances every region clock to it, like Engine.RunUntil.
func (s *Sharded) RunUntil(horizon Time) {
	s.run(horizon)
	for _, e := range s.regions {
		e.advanceTo(horizon)
	}
}
