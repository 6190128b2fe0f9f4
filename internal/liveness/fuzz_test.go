package liveness

import (
	"testing"
)

// FuzzMergeChanges feeds arbitrary forged deltas — out-of-range ids,
// absurd incarnations, undefined states, conflicting domain claims — into
// a view that is authoritative for half its nodes, and proves the §4.3
// invariants hold against any of them: no panic, the view version never
// regresses, and no claim about a local node is ever adopted (local nodes
// stay in the state the hosting process put them in). Online, which reads
// a lock-free mirror of the entries, must agree with StateOf after every
// merge.
func FuzzMergeChanges(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 200, 3, 2, 1, 99})
	f.Add([]byte{0, 2, 0xff, 0xff, 0xff, 0xff, 7, 7, 7, 7, 3, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 8
		v := NewView(n, func(id int) bool { return id < n/2 })
		// Put the local nodes in known states the merges must preserve.
		v.SetSP(0, 0)
		v.MarkSuspect(1)
		v.MarkDead(2)
		wantLocal := [4]State{Alive, Suspect, Dead, Alive}

		// Decode the fuzz input as a stream of forged changes: 6 bytes per
		// record — id, state, 3 incarnation bytes, SP claim.
		var delta []Change
		for i := 0; i+6 <= len(data); i += 6 {
			delta = append(delta, Change{
				ID: int(int8(data[i])), // negative ids included
				E: Entry{
					State: State(data[i+1]),
					Inc: uint64(data[i+2]) |
						uint64(data[i+3])<<8 |
						uint64(data[i+4])<<40, // huge incarnations included
					SP: int(int8(data[i+5])),
				},
			})
		}

		before := v.Version()
		v.MergeChanges(delta)
		if v.Version() < before {
			t.Fatalf("version regressed %d -> %d", before, v.Version())
		}
		checkOnlineMirror(t, v)
		for id := 0; id < n/2; id++ {
			if got := v.StateOf(id); got != wantLocal[id] {
				t.Fatalf("local node %d state %s, want %s (forged tail adopted)",
					id, got, wantLocal[id])
			}
		}
		if sp := v.SPOf(0); sp != 0 {
			t.Fatalf("local domain claim overwritten: SP = %d", sp)
		}
		for id := 0; id < n; id++ {
			if s := v.StateOf(id); s > Dead {
				t.Fatalf("undefined state %d adopted for node %d", s, id)
			}
		}
		// A second identical merge must be vacuous for local entries up to
		// re-asserts already applied — in particular it must not panic or
		// regress either.
		before = v.Version()
		v.MergeChanges(delta)
		if v.Version() < before {
			t.Fatalf("version regressed on replay %d -> %d", before, v.Version())
		}
		checkOnlineMirror(t, v)
	})
}

// checkOnlineMirror asserts Online(id) == (StateOf(id) == Alive) for every
// node of the view.
func checkOnlineMirror(t *testing.T, v *View) {
	t.Helper()
	for id := 0; id < v.Len(); id++ {
		if v.Online(id) != (v.StateOf(id) == Alive) {
			t.Fatalf("node %d: Online = %v but state is %s", id, v.Online(id), v.StateOf(id))
		}
	}
}
