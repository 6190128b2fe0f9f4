package liveness

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func TestStateTransitions(t *testing.T) {
	v := NewView(3, nil)
	if !v.Online(0) || v.OnlineCount() != 3 {
		t.Fatalf("fresh view not fully alive: %s", v)
	}

	// Alive -> Suspect -> Dead -> Alive, the §4.3 silent-failure round-trip.
	inc, changed := v.MarkSuspect(1)
	if !changed || inc != 0 {
		t.Fatalf("MarkSuspect = (%d, %v), want (0, true)", inc, changed)
	}
	if v.Online(1) {
		t.Error("suspect node counts as online")
	}
	if _, changed := v.MarkSuspect(1); changed {
		t.Error("re-suspecting a suspect changed the entry")
	}
	if !v.Confirm(1, inc) {
		t.Error("Confirm at the filed incarnation refused")
	}
	if v.StateOf(1) != Dead {
		t.Errorf("state after Confirm = %s", v.StateOf(1))
	}
	if !v.MarkAlive(1) {
		t.Error("MarkAlive on a dead node refused")
	}
	if e := v.EntryOf(1); e.State != Alive || e.Inc != 1 {
		t.Errorf("rejoin entry = %+v, want alive inc 1", e)
	}

	// A stale confirmation must not kill the rejoined node.
	if v.Confirm(1, inc) {
		t.Error("stale Confirm promoted a rejoined node")
	}
	if !v.Online(1) {
		t.Error("rejoined node offline after stale Confirm")
	}

	// Suspicion on a dead node is inert.
	v.MarkDead(2)
	if _, changed := v.MarkSuspect(2); changed {
		t.Error("MarkSuspect changed a dead entry")
	}
}

func TestSetSPAndOnlineIDs(t *testing.T) {
	v := NewView(4, nil)
	if !v.SetSP(0, 0) || !v.SetSP(1, 0) {
		t.Fatal("SetSP refused")
	}
	if v.SetSP(1, 0) {
		t.Error("redundant SetSP reported a change")
	}
	if v.SPOf(1) != 0 || v.SPOf(2) != NoSP {
		t.Errorf("SP claims: %d, %d", v.SPOf(1), v.SPOf(2))
	}
	v.MarkDead(3)
	if got, want := v.OnlineIDs(), []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("OnlineIDs = %v, want %v", got, want)
	}
	if v.OnlineCount() != 3 {
		t.Errorf("OnlineCount = %d", v.OnlineCount())
	}
	// SP changes on an alive node bump the incarnation so they gossip over
	// older records; on a dead node they ride the current incarnation.
	incAlive := v.EntryOf(1).Inc
	v.SetSP(1, 2)
	if v.EntryOf(1).Inc != incAlive+1 {
		t.Error("SP change on an alive node kept its incarnation")
	}
	incDead := v.EntryOf(3).Inc
	v.SetSP(3, 2)
	if v.EntryOf(3).Inc != incDead {
		t.Error("SP change on a dead node bumped its incarnation")
	}
}

func TestIncarnationConflicts(t *testing.T) {
	cases := []struct {
		name     string
		incoming Entry
		current  Entry
		wins     bool
	}{
		{"higher inc beats lower", Entry{Alive, 3, NoSP}, Entry{Dead, 2, NoSP}, true},
		{"lower inc loses", Entry{Dead, 2, NoSP}, Entry{Alive, 3, NoSP}, false},
		{"equal inc: dead beats alive", Entry{Dead, 2, NoSP}, Entry{Alive, 2, NoSP}, true},
		{"equal inc: dead beats suspect", Entry{Dead, 2, NoSP}, Entry{Suspect, 2, NoSP}, true},
		{"equal inc: suspect beats alive", Entry{Suspect, 2, NoSP}, Entry{Alive, 2, NoSP}, true},
		{"equal inc: alive loses to suspect", Entry{Alive, 2, NoSP}, Entry{Suspect, 2, NoSP}, false},
		{"identical entries tie", Entry{Alive, 2, 5}, Entry{Alive, 2, 5}, false},
	}
	for _, c := range cases {
		if got := c.incoming.Supersedes(c.current); got != c.wins {
			t.Errorf("%s: Supersedes = %v, want %v", c.name, got, c.wins)
		}
	}
}

func TestMergeAdoptsRemoteForNonLocalNodes(t *testing.T) {
	// Process A hosts 0-1, process B hosts 2-3.
	a := NewView(4, func(id int) bool { return id < 2 })
	b := NewView(4, func(id int) bool { return id >= 2 })

	b.MarkDead(3)
	b.SetSP(2, 0)
	changed, newerLocal := a.Merge(b.Snapshot())
	if !reflect.DeepEqual(changed, []int{2, 3}) {
		t.Fatalf("changed = %v, want [2 3]", changed)
	}
	if newerLocal {
		t.Error("A claims newer info after adopting everything")
	}
	if a.StateOf(3) != Dead || a.SPOf(2) != 0 {
		t.Errorf("A did not adopt B's entries: %s", a)
	}

	// Idempotent: a second merge changes nothing and needs no reply.
	if changed, newerLocal := a.Merge(b.Snapshot()); changed != nil || newerLocal {
		t.Errorf("re-merge: changed=%v newerLocal=%v", changed, newerLocal)
	}
}

func TestMergeRefutesClaimsAboutLocalNodes(t *testing.T) {
	a := NewView(4, func(id int) bool { return id < 2 })
	b := NewView(4, func(id int) bool { return id >= 2 })

	// B suspected and confirmed A's node 0 while the link was broken.
	b.MarkSuspect(0)
	b.Confirm(0, 0)
	if b.StateOf(0) != Dead {
		t.Fatal("setup: B should hold 0 dead")
	}

	// A merges B's gossip: node 0 is local and alive, so A refutes — its
	// entry outranks B's and the merge reports newer local info (the reply
	// trigger).
	changed, newerLocal := a.Merge(b.Snapshot())
	if !newerLocal {
		t.Error("refutation did not flag newer local info")
	}
	if !reflect.DeepEqual(changed, []int{0}) {
		t.Errorf("changed = %v, want [0]", changed)
	}
	e := a.EntryOf(0)
	if e.State != Alive || !e.Supersedes(b.EntryOf(0)) {
		t.Errorf("refuted entry %+v does not outrank B's %+v", e, b.EntryOf(0))
	}

	// The reply brings B back in line.
	b.Merge(a.Snapshot())
	if b.StateOf(0) != Alive {
		t.Errorf("B still holds 0 %s after the refutation reply", b.StateOf(0))
	}
}

// TestGossipConvergence simulates random pairwise anti-entropy across
// several partial views and asserts they all converge to one consistent
// picture that honours every authoritative fact.
func TestGossipConvergence(t *testing.T) {
	const n, procs = 12, 3
	owner := func(id int) int { return id % procs }
	views := make([]*View, procs)
	for p := 0; p < procs; p++ {
		p := p
		views[p] = NewView(n, func(id int) bool { return owner(id) == p })
	}

	// Authoritative facts, each applied in its owner's view only.
	views[owner(3)].MarkDead(3)
	views[owner(4)].MarkSuspect(4)
	views[owner(4)].Confirm(4, 0)
	views[owner(7)].SetSP(7, 0)
	views[owner(8)].MarkDead(8)
	views[owner(8)].MarkAlive(8) // rejoin: alive at inc 1

	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 200; round++ {
		src, dst := rng.Intn(procs), rng.Intn(procs)
		if src == dst {
			continue
		}
		_, newer := views[dst].Merge(views[src].Snapshot())
		if newer {
			views[src].Merge(views[dst].Snapshot()) // the reply
		}
	}

	want := views[0].Snapshot()
	for p := 1; p < procs; p++ {
		if got := views[p].Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("views diverge after convergence:\nview0 %s\nview%d %s", views[0], p, views[p])
		}
	}
	if views[1].StateOf(3) != Dead || views[1].StateOf(4) != Dead {
		t.Error("deaths did not propagate")
	}
	if views[2].SPOf(7) != 0 {
		t.Error("SP claim did not propagate")
	}
	if !views[0].Online(8) {
		t.Error("rejoin did not propagate")
	}
}

func TestObserverAndVersion(t *testing.T) {
	v := NewView(2, nil)
	var mu sync.Mutex
	var seen []int
	v.SetObserver(func(id int, e Entry) {
		mu.Lock()
		seen = append(seen, id)
		mu.Unlock()
	})
	v0 := v.Version()
	v.MarkDead(1)
	v.MarkDead(1) // no-op: no notification, no version bump
	v.MarkAlive(1)
	if v.Version() != v0+2 {
		t.Errorf("version advanced by %d, want 2", v.Version()-v0)
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(seen, []int{1, 1}) {
		t.Errorf("observer saw %v, want [1 1]", seen)
	}
}

// TestSinceAndVersionedSnapshot: Since returns exactly the entries stamped
// after the given version, ascending by id, and Since(0) lines up with
// the whole-view VersionedSnapshotReference.
func TestSinceAndVersionedSnapshot(t *testing.T) {
	v := NewView(5, nil)
	entries, ver := VersionedSnapshotReference(v)
	if len(entries) != 5 || ver != v.Version() {
		t.Fatalf("snapshot %d entries at version %d, want 5 at %d", len(entries), ver, v.Version())
	}
	// A fresh view stamps everything at version 1: Since(0) is everything,
	// Since(1) is nothing.
	all, allVer := v.Since(0)
	if got := ChangesOf(all); allVer != ver || !reflect.DeepEqual(got, ChangesOf(Entries(entries))) {
		t.Fatalf("Since(0) = %+v at version %d, want all 5 of %+v at %d", got, allVer, entries, ver)
	}
	if none, _ := v.Since(ver); ChangesOf(none) != nil {
		t.Fatalf("Since(current) returned %+v, want the empty delta", ChangesOf(none))
	}

	v.MarkDead(3)
	v.SetSP(1, 0)
	d, now := v.Since(ver)
	if now != v.Version() {
		t.Fatalf("Since reported version %d, view at %d", now, v.Version())
	}
	delta := ChangesOf(d)
	if len(delta) != 2 || delta[0].ID != 1 || delta[1].ID != 3 {
		t.Fatalf("delta = %+v, want ids [1 3] ascending", delta)
	}
	if delta[1].E.State != Dead || delta[0].E.SP != 0 {
		t.Fatalf("delta carries wrong records: %+v", delta)
	}
	// The delta is immutable: later mutations do not show through it.
	v.MarkAlive(3)
	if got := ChangesOf(d); !reflect.DeepEqual(got, delta) {
		t.Fatalf("delta changed under a later mutation: %+v, was %+v", got, delta)
	}
	now = v.Version()
	// Re-marking alive is a no-op: no new stamp.
	v.MarkAlive(3)
	if d2, _ := v.Since(now); ChangesOf(d2) != nil {
		t.Fatalf("vacuous mutation produced a delta: %+v", ChangesOf(d2))
	}
}

// TestSinceConcurrent takes, sizes, iterates and self-merges deltas from
// several goroutines while others mutate the view: the published snapshot
// is shared, so every delta must stay internally consistent (its sizes
// match the entries it iterates) however the publishing races and the
// mutations interleave. Run it with -race.
func TestSinceConcurrent(t *testing.T) {
	const n, workers, rounds = 64, 4, 400
	v := NewView(n, func(id int) bool { return id%2 == 0 })
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				id := rng.Intn(n)
				switch rng.Intn(3) {
				case 0:
					v.MarkDead(id)
				case 1:
					v.MarkAlive(id)
				default:
					v.SetSP(id, rng.Intn(n))
				}
			}
		}(int64(w))
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < rounds; i++ {
				ver := v.Version()
				base := uint64(rng.Int63n(int64(ver + 1)))
				d, dver := v.Since(base)
				count, entryBytes, _ := d.Size()
				seen, sum := 0, 0
				for _, e := range d.All() {
					seen++
					sum += e.wireLen()
				}
				if dver < ver || seen != count || sum != entryBytes {
					t.Errorf("delta at base %d (version %d): %d entries of %d B, sized %d of %d B",
						base, dver, seen, sum, count, entryBytes)
					return
				}
				v.MergeChanges(d)
			}
		}(int64(w))
	}
	wg.Wait()
	checkOnlineMirror(t, v)
}

// TestMergeChangesMatchesMerge: folding a delta by named ids has the same
// per-entry semantics as the positional Merge — adoption for non-local
// nodes, refutation for local ones — and ignores out-of-range ids.
func TestMergeChangesMatchesMerge(t *testing.T) {
	a := NewView(4, func(id int) bool { return id < 2 })
	b := NewView(4, func(id int) bool { return id >= 2 })
	b.MarkDead(3)
	b.SetSP(2, 0)
	b.MarkDead(1) // B's claim about A's own node: must be refuted

	ver := uint64(0) // everything
	delta, _ := b.Since(ver)
	changed, newerLocal := a.MergeChanges(delta)
	if !reflect.DeepEqual(changed, []int{1, 2, 3}) {
		t.Fatalf("changed = %v, want [1 2 3]", changed)
	}
	if !newerLocal {
		t.Error("refutation did not flag newer local info")
	}
	if a.StateOf(3) != Dead || a.SPOf(2) != 0 {
		t.Errorf("A did not adopt B's entries: %s", a)
	}
	if a.StateOf(1) != Alive || a.EntryOf(1).Inc != b.EntryOf(1).Inc+1 {
		t.Errorf("A did not refute the claim about its own node: %+v", a.EntryOf(1))
	}

	// Idempotent, and ids outside the view are skipped.
	if changed, _ := a.MergeChanges(delta); changed != nil {
		t.Errorf("re-merge changed %v", changed)
	}
	if changed, newer := a.MergeChanges(Changes([]Change{{ID: -1}, {ID: 99, E: Entry{State: Dead, Inc: 9}}})); changed != nil || newer {
		t.Errorf("out-of-range ids had an effect: changed=%v newer=%v", changed, newer)
	}
}

// BenchmarkViewSince is the delta-gossip tail on the hot path: a
// 500-entry view with a third of its entries changed since the partner's
// base, taken and sized. Every tail of one version shares the snapshot the
// first one published, so Since must not allocate (CI gates allocs/op == 0
// via benchgate).
func BenchmarkViewSince(b *testing.B) {
	v := NewView(500, nil)
	base := v.Version()
	for id := 0; id < 500; id += 3 {
		v.MarkDead(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _ := v.Since(base)
		if n, _, _ := d.Size(); n != 167 {
			b.Fatalf("delta has %d entries, want 167", n)
		}
	}
}
