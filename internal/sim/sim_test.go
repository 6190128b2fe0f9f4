package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeConversions(t *testing.T) {
	if Seconds(90) != 90 {
		t.Error("Seconds wrong")
	}
	if Minutes(2) != 120 {
		t.Error("Minutes wrong")
	}
	if Hours(1) != 3600 {
		t.Error("Hours wrong")
	}
	if Duration(1500*time.Millisecond) != 1.5 {
		t.Error("Duration wrong")
	}
}

func TestEventOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(10, func() { order = append(order, 2) })
	e.At(5, func() { order = append(order, 1) })
	e.At(10, func() { order = append(order, 3) }) // same time: FIFO
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 10 {
		t.Errorf("Now = %v, want 10", e.Now())
	}
	if e.Executed() != 3 {
		t.Errorf("Executed = %d", e.Executed())
	}
}

func TestAfterAndPastClamp(t *testing.T) {
	e := New()
	var at Time
	e.At(100, func() {
		// Scheduling in the past clamps to now.
		e.At(50, func() { at = e.Now() })
	})
	e.Run()
	if at != 100 {
		t.Errorf("past event ran at %v, want 100", at)
	}
	e2 := New()
	fired := false
	e2.After(-5, func() { fired = true })
	e2.Run()
	if !fired || e2.Now() != 0 {
		t.Error("negative delay mishandled")
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 10} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(5)
	if len(fired) != 3 {
		t.Errorf("fired %v before horizon", fired)
	}
	if e.Now() != 5 {
		t.Errorf("Now = %v, want horizon 5", e.Now())
	}
	e.RunUntil(20)
	if len(fired) != 4 || e.Now() != 20 {
		t.Errorf("after second horizon: fired=%v now=%v", fired, e.Now())
	}
}

func TestStepEmpty(t *testing.T) {
	e := New()
	if e.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 5 {
			e.After(1, rec)
		}
	}
	e.After(1, rec)
	e.Run()
	if depth != 5 {
		t.Errorf("depth = %d", depth)
	}
	if e.Now() != 5 {
		t.Errorf("Now = %v", e.Now())
	}
}

// TestHeapOrderMatchesStableSort: the typed heap pops in exactly
// (time, schedule order) — what a stable sort of every scheduled event by
// time yields — across random schedules dense in equal-time ties, with
// events scheduled from inside callbacks (delay 0 included) and the run
// split by RunUntil horizons. Scheduling from a callback never lands
// before the running event, so the sorted log is the only valid order.
func TestHeapOrderMatchesStableSort(t *testing.T) {
	type sched struct {
		at Time
		id int
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var log []sched
		var ran []int
		var schedule func(at Time, depth int)
		schedule = func(at Time, depth int) {
			id := len(log)
			log = append(log, sched{at, id})
			e.At(at, func() {
				ran = append(ran, id)
				for k := rng.Intn(3); depth < 3 && k > 0; k-- {
					schedule(e.Now()+Time(rng.Intn(3)), depth+1)
				}
			})
		}
		for i := rng.Intn(300); i >= 0; i-- {
			schedule(Time(rng.Intn(8)), 0)
		}
		for h := Time(0); h < 8; h += Time(rng.Intn(4)) + 0.5 {
			e.RunUntil(h)
		}
		e.Run()
		want := append([]sched(nil), log...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(ran) != len(want) || e.Pending() != 0 {
			t.Fatalf("seed %d: ran %d of %d events, %d pending", seed, len(ran), len(want), e.Pending())
		}
		for i := range want {
			if ran[i] != want[i].id {
				t.Fatalf("seed %d: position %d ran event %d, oracle says %d", seed, i, ran[i], want[i].id)
			}
		}
	}
}

// Property: events always fire in non-decreasing time order regardless of
// the scheduling order.
func TestQuickMonotoneClock(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New()
		var last Time = -1
		ok := true
		for _, d := range delays {
			e.At(Time(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: N scheduled events = N executed events.
func TestQuickConservation(t *testing.T) {
	f := func(delays []uint8) bool {
		e := New()
		for _, d := range delays {
			e.At(Time(d), func() {})
		}
		e.Run()
		return e.Executed() == uint64(len(delays)) && e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// BenchmarkEventDispatch is the hot-path gate: schedule + dispatch of
// one event must not allocate once the heap's backing array has grown
// (CI enforces allocs/op == 0 via benchgate).
func BenchmarkEventDispatch(b *testing.B) {
	e := New()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.After(1, fn)
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, fn)
		e.Step()
	}
}
