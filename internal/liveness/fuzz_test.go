package liveness

import (
	"reflect"
	"testing"

	"p2psum/internal/wire"
)

// FuzzMergeChanges feeds arbitrary forged deltas — out-of-range ids,
// absurd incarnations, undefined states, conflicting domain claims,
// successor marks read through the wire form, malformed ones included — into
// a view that is authoritative for half its nodes, and proves the §4.3
// invariants hold against any of them: no panic, the view version never
// regresses, no claim about a local node is ever adopted (local nodes
// stay in the state the hosting process put them in), and every entry of
// the view stays well-formed (Entry.Valid). Online, which reads
// a lock-free mirror of the entries, must agree with StateOf after every
// merge. Finally a delta the view published (Since) is merged back into
// it after fuzz-chosen mutations — the bounded self-merge — and must act
// exactly like the same merge into a clone. Every input runs on a view of
// 8 nodes and on one of 72, whose snapshots span two chunks, so the
// self-merge also skips chunks the mutations left alone.
func FuzzMergeChanges(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 200, 3, 2, 1, 99})
	f.Add([]byte{0, 2, 0xff, 0xff, 0xff, 0xff, 7, 7, 7, 7, 3, 1, 0})
	f.Add([]byte{5, 0, 9, 0, 0, 0xfd, 0, 0, 9, 0, 0, 0xfe, 6, 1, 9, 0, 0, 0x80, 3, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, n := range []int{8, 72} {
			fuzzMerge(t, n, data)
		}
	})
}

// fuzzMerge is one FuzzMergeChanges input on a view of n nodes.
func fuzzMerge(t *testing.T, n int, data []byte) {
	v := NewView(n, func(id int) bool { return id < n/2 })
	// Put the local nodes in known states the merges must preserve;
	// the ones past 3 stay alive.
	v.SetSP(0, 0)
	v.MarkSuspect(1)
	v.MarkDead(2)
	wantLocal := func(id int) State { return [4]State{Alive, Suspect, Dead}[min(id, 3)] }

	// Decode the fuzz input as a stream of forged changes: 6 bytes per
	// record — id, state, 3 incarnation bytes, SP claim. A claim below
	// NoSP is the wire form of a successor mark: it is read back
	// through ReadEntry, as a gossip decoder would.
	var delta []Change
	for i := 0; i+6 <= len(data); i += 6 {
		id := int(int8(data[i])) // negative ids included
		e := Entry{
			State: State(data[i+1]),
			Inc: uint64(data[i+2]) |
				uint64(data[i+3])<<8 |
				uint64(data[i+4])<<40, // huge incarnations included
			SP: int(int8(data[i+5])),
		}
		if e.SP < NoSP {
			var enc wire.Enc
			enc.Uvarint(e.Inc<<2 | uint64(e.State&3))
			enc.Varint(int64(e.SP))
			st := e.State
			e = ReadEntry(wire.NewDec(enc.Bytes()), id)
			e.State = st // undefined states beyond the two wire bits too
		}
		delta = append(delta, Change{ID: id, E: e})
	}

	before := v.Version()
	v.MergeChanges(Changes(delta))
	if v.Version() < before {
		t.Fatalf("version regressed %d -> %d", before, v.Version())
	}
	checkOnlineMirror(t, v)
	for id := 0; id < n/2; id++ {
		if got := v.StateOf(id); got != wantLocal(id) {
			t.Fatalf("n=%d: local node %d state %s, want %s (forged tail adopted)",
				n, id, got, wantLocal(id))
		}
	}
	if sp := v.SPOf(0); sp != 0 {
		t.Fatalf("local domain claim overwritten: SP = %d", sp)
	}
	for id := 0; id < n/2; id++ {
		if dead := v.EntryOf(id).Succeeds(); dead != NoSP {
			t.Fatalf("forged successor mark adopted for local node %d (succeeds %d)", id, dead)
		}
	}
	checkValid(t, v)
	// A second identical merge must be vacuous for local entries up to
	// re-asserts already applied — in particular it must not panic or
	// regress either.
	before = v.Version()
	v.MergeChanges(Changes(delta))
	if v.Version() < before {
		t.Fatalf("version regressed on replay %d -> %d", before, v.Version())
	}
	checkOnlineMirror(t, v)

	// Self-merge: take a delta at a fuzz-chosen base, mutate the view
	// two bytes at a time (operation, node), then merge the delta back
	// and into a clone of the mutated view.
	base := uint64(0)
	if len(data) > 0 {
		base = uint64(data[0]) % (v.Version() + 1)
	}
	d, _ := v.Since(base)
	for i := 1; i+1 < len(data); i += 2 {
		id, op := int(data[i])%n, data[i+1]
		switch op % 6 {
		case 0:
			v.MarkAlive(id)
		case 1:
			v.MarkDead(id)
		case 2:
			v.MarkSuspect(id)
		case 3:
			v.Confirm(id, v.EntryOf(id).Inc)
		case 4:
			v.SetSP(id, int(op/6)%(n+1)-1)
		default:
			v.Succeed(id, (id+1+int(op/6)%(n-1))%n)
		}
	}
	clone := CloneView(v)
	merge := func(v *View) (changed []int, newerLocal bool, seen []Change) {
		v.SetObserver(func(id int, e Entry) { seen = append(seen, Change{id, e}) })
		changed, newerLocal = v.MergeChanges(d)
		v.SetObserver(nil)
		return changed, newerLocal, seen
	}
	changed, newer, seen := merge(v)
	cChanged, cNewer, cSeen := merge(clone)
	if !reflect.DeepEqual(changed, cChanged) || newer != cNewer || !reflect.DeepEqual(seen, cSeen) {
		t.Fatalf("self-merge changed %v newer %v observed %v; clone merge changed %v newer %v observed %v",
			changed, newer, seen, cChanged, cNewer, cSeen)
	}
	if got, want := StateOfView(v), StateOfView(clone); got != want {
		t.Fatalf("self-merge left\n%s\nclone merge left\n%s", got, want)
	}
	checkOnlineMirror(t, v)
	checkValid(t, v)
}

// checkValid asserts every entry of the view is well-formed.
func checkValid(t *testing.T, v *View) {
	t.Helper()
	for id := 0; id < v.Len(); id++ {
		if e := v.EntryOf(id); !e.Valid(id, v.Len()) {
			t.Fatalf("node %d: malformed entry %+v in the view", id, e)
		}
	}
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
