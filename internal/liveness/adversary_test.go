package liveness

import (
	"testing"
)

// The adversarial suite attacks the refutation path directly: forged
// higher-incarnation death claims, conflicting domain claims and replayed
// stale snapshots against nodes this view is authoritative for must all
// bounce off Merge/MergeChanges — the SWIM defense the scenario engine's
// Adversary exercises end-to-end.

// localTo builds a view where exactly the given ids are local.
func localTo(n int, ids ...int) *View {
	set := make(map[int]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return NewView(n, func(id int) bool { return set[id] })
}

func TestForgedDeathClaimRefuted(t *testing.T) {
	v := localTo(4, 0, 1)
	before := v.Version()

	// An adversary claims local node 1 dead at an incarnation far above
	// anything the node ever used.
	changed, newerLocal := v.MergeChanges(Changes([]Change{{ID: 1, E: Entry{State: Dead, Inc: 40}}}))
	if !newerLocal {
		t.Error("refutation did not request a reply (newerLocal false)")
	}
	if e := v.EntryOf(1); e.State != Alive || e.Inc != 41 {
		t.Fatalf("entry after forged death claim = %+v, want alive re-asserted at inc 41", e)
	}
	if len(changed) != 1 || changed[0] != 1 {
		t.Fatalf("changed = %v, want [1] (the re-assert gossips out)", changed)
	}
	if v.Version() <= before {
		t.Error("re-assert did not bump the version (refutation would not propagate)")
	}
	if !v.Online(1) {
		t.Error("forged death claim took a local node offline")
	}

	// Replaying the same forged claim is now stale and fully vacuous.
	changed, _ = v.MergeChanges(Changes([]Change{{ID: 1, E: Entry{State: Dead, Inc: 40}}}))
	if changed != nil {
		t.Fatalf("replayed forged claim changed entries %v", changed)
	}
}

func TestConflictingDomainClaimRefuted(t *testing.T) {
	v := localTo(4, 0)
	v.SetSP(0, 0) // node 0 is a summary peer claiming itself

	// Conflicting claim: node 0 allegedly serves domain 3, at a higher
	// incarnation so it would supersede on an unsuspecting peer.
	inc := v.EntryOf(0).Inc
	_, newerLocal := v.MergeChanges(Changes([]Change{{ID: 0, E: Entry{State: Alive, Inc: inc + 10, SP: 3}}}))
	if !newerLocal {
		t.Error("conflicting claim not refuted with a reply")
	}
	e := v.EntryOf(0)
	if e.SP != 0 {
		t.Fatalf("local domain claim overwritten: SP = %d, want 0", e.SP)
	}
	if e.Inc != inc+11 {
		t.Fatalf("re-assert incarnation = %d, want %d (must supersede the forgery)", e.Inc, inc+11)
	}
}

func TestReplayedStaleSnapshotIgnored(t *testing.T) {
	v := localTo(4, 0, 1)
	stale := v.Snapshot() // captured before any progress

	// Real progress: remote node 2 leaves and rejoins, remote node 3 turns
	// suspect, local node 1 claims a domain.
	v.MergeChanges(Changes([]Change{{ID: 2, E: Entry{State: Alive, Inc: 2}}}))
	v.MarkSuspect(3)
	v.SetSP(1, 0)
	version := v.Version()
	want := v.Snapshot()

	changed, newerLocal := v.Merge(stale)
	if changed != nil {
		t.Fatalf("stale snapshot changed entries %v", changed)
	}
	if !newerLocal {
		t.Error("replay against a newer view must request a reply")
	}
	if v.Version() != version {
		t.Errorf("version moved %d -> %d on a vacuous replay", version, v.Version())
	}
	got := v.Snapshot()
	for id := range want {
		if got[id] != want[id] {
			t.Errorf("entry %d regressed: %+v -> %+v", id, want[id], got[id])
		}
	}
}

func TestForgedStateValueRefused(t *testing.T) {
	v := localTo(2, 0)
	_, newerLocal := v.MergeChanges(Changes([]Change{{ID: 1, E: Entry{State: State(7), Inc: 99}}}))
	if !newerLocal {
		t.Error("forged state not flagged for refutation")
	}
	if e := v.EntryOf(1); e.State != Alive || e.Inc != 0 {
		t.Fatalf("forged state adopted: %+v", e)
	}
}

// TestSuspectDedupeByIncarnation is the satellite regression for the
// partition double-count: during an active partition both the keepalive
// teardown and the §4.3 drop path report the same peer, and a Dead claim
// about a locally-suspect node arriving from the far side used to orphan
// the confirmation timer (the refutation re-assert bumped the incarnation
// the timer was filed under, wedging the node in Suspect forever). One
// incarnation must file one suspicion, and the original timer must still
// resolve it across a re-assert.
func TestSuspectDedupeByIncarnation(t *testing.T) {
	v := localTo(4, 0, 1) // node 1 is local: we host it and time its outage

	// First failure path files the suspicion.
	inc, changed := v.MarkSuspect(1)
	if !changed || inc != 0 {
		t.Fatalf("MarkSuspect = (%d, %v), want (0, true)", inc, changed)
	}
	if got := v.Suspicions(); got != 1 {
		t.Fatalf("Suspicions after first filing = %d, want 1", got)
	}

	// Second failure path for the same outage: same incarnation, no new
	// filing, no second timer.
	if _, changed := v.MarkSuspect(1); changed {
		t.Error("second failure path filed a duplicate suspicion")
	}
	if got := v.Suspicions(); got != 1 {
		t.Fatalf("Suspicions after duplicate = %d, want 1", got)
	}

	// The far side of the partition confirmed its own timer first and its
	// Dead claim arrives by gossip. We host node 1, so the claim is
	// refuted by re-assert — state stays Suspect, incarnation climbs.
	v.MergeChanges(Changes([]Change{{ID: 1, E: Entry{State: Dead, Inc: 0}}}))
	if e := v.EntryOf(1); e.State != Suspect || e.Inc != 1 {
		t.Fatalf("entry after refuted dead claim = %+v, want suspect at inc 1", e)
	}
	if got := v.Suspicions(); got != 1 {
		t.Fatalf("Suspicions after re-assert = %d, want 1 (re-assert is not a new filing)", got)
	}

	// The original confirmation timer fires with the incarnation it was
	// filed under. Pre-fix this returned false (inc mismatch) and node 1
	// hung Suspect forever, unconfirmable and unrefuted.
	if !v.Confirm(1, inc) {
		t.Fatal("original timer failed to resolve the suspicion after a re-assert")
	}
	if v.StateOf(1) != Dead {
		t.Fatalf("state after confirm = %s, want dead", v.StateOf(1))
	}

	// Rejoin clears the filing; a stale confirm must not kill the node,
	// and the next outage files a fresh suspicion.
	v.MarkAlive(1)
	if v.Confirm(1, inc) {
		t.Error("stale confirm killed a rejoined node")
	}
	if _, changed := v.MarkSuspect(1); !changed {
		t.Error("fresh incarnation refused a new filing")
	}
	if got := v.Suspicions(); got != 2 {
		t.Fatalf("Suspicions after fresh outage = %d, want 2", got)
	}
}
