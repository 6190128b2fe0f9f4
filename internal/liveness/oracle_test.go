package liveness_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"p2psum/internal/core"
	"p2psum/internal/liveness"
	"p2psum/internal/wire"
)

// The oracle suite holds the published-snapshot tails to the gossip they
// replaced: SinceReference / VersionedSnapshotReference for the entries,
// and the encoders below — the per-entry writers core used before tails
// were sized from cached lengths — for the bytes. The tail codec itself is
// reached through the registry (core registers it), so the bytes checked
// are the ones every transport charges and TCP writes.

// encodeEntriesReference is the positional full-tail body.
func encodeEntriesReference(e *wire.Enc, entries []liveness.Entry) {
	e.Uvarint(uint64(len(entries)))
	for _, en := range entries {
		e.Uvarint(en.Inc<<2 | uint64(en.State))
		e.Varint(int64(en.SP))
	}
}

// encodeChangesReference is the gap-encoded delta body.
func encodeChangesReference(e *wire.Enc, delta []liveness.Change) {
	e.Uvarint(uint64(len(delta)))
	prev := -1
	for _, c := range delta {
		e.Uvarint(uint64(c.ID - prev))
		e.Uvarint(c.E.Inc<<2 | uint64(c.E.State))
		e.Varint(int64(c.E.SP))
		prev = c.ID
	}
}

// mutate applies one seeded mutation: a local transition, a suspicion
// confirmation, a domain claim, or a forged remote delta (ascending ids,
// incarnations around the current ones, sometimes an undefined state).
func mutate(rng *rand.Rand, v *liveness.View) {
	n := v.Len()
	id := rng.Intn(n)
	switch rng.Intn(6) {
	case 0:
		v.MarkAlive(id)
	case 1:
		v.MarkDead(id)
	case 2:
		v.MarkSuspect(id)
	case 3:
		v.Confirm(id, v.EntryOf(id).Inc)
	case 4:
		v.SetSP(id, rng.Intn(n+1)-1)
	default:
		var forged []liveness.Change
		for id := rng.Intn(3); id < n; id += 1 + rng.Intn(n) {
			e := v.EntryOf(id)
			e.Inc += uint64(rng.Intn(3))
			if e.Inc > 0 && rng.Intn(3) == 0 {
				e.Inc--
			}
			e.State = liveness.State(rng.Intn(4)) // 3 is forged
			e.SP = rng.Intn(n+1) - 1
			forged = append(forged, liveness.Change{ID: id, E: e})
		}
		v.MergeChanges(liveness.Changes(forged))
	}
}

// checkTail encodes the tail of the delta taken at base through the
// registered gossip codec, counted and written, and compares both with
// the reference bytes; the written bytes must decode back to the
// reference entries.
func checkTail(t *testing.T, v *liveness.View, base uint64, d liveness.Delta, ver uint64) {
	t.Helper()
	full := base == 0
	var ref wire.Enc
	ref.Bool(full)
	ref.Uvarint(ver)
	ref.Uvarint(base)
	var want []liveness.Change
	if full {
		entries, _ := liveness.VersionedSnapshotReference(v)
		encodeEntriesReference(&ref, entries)
		want = liveness.ChangesOf(liveness.Entries(entries))
	} else {
		want, _ = liveness.SinceReference(v, base)
		encodeChangesReference(&ref, want)
	}
	ref.Bool(false)

	payload := core.GossipPayload{Tail: core.GossipTail{Full: full, Delta: d, Ver: ver, Ack: base}}
	codec, _ := wire.Lookup(core.MsgGossip)
	count, w := wire.NewCountEnc(), new(wire.Enc)
	if err := codec.Encode(count, payload); err != nil {
		t.Fatal(err)
	}
	if err := codec.Encode(w, payload); err != nil {
		t.Fatal(err)
	}
	if count.Len() != w.Len() || !bytes.Equal(w.Bytes(), ref.Bytes()) {
		t.Fatalf("base %d: counted %d bytes, wrote %d, reference %d (bytes equal: %v)",
			base, count.Len(), w.Len(), ref.Len(), bytes.Equal(w.Bytes(), ref.Bytes()))
	}
	got, err := codec.Decode(w.Bytes())
	if err != nil {
		t.Fatalf("base %d: decode: %v", base, err)
	}
	if dec := liveness.ChangesOf(got.(core.GossipPayload).Tail.Delta); !reflect.DeepEqual(dec, want) {
		t.Fatalf("base %d: decoded %+v, want %+v", base, dec, want)
	}
}

// mergeRecord is everything one merge reports or causes.
type mergeRecord struct {
	changed    []int
	newerLocal bool
	observed   []liveness.Change
	state      string
}

// recordMerge merges d into v with an observer attached.
func recordMerge(v *liveness.View, d liveness.Delta) mergeRecord {
	var r mergeRecord
	v.SetObserver(func(id int, e liveness.Entry) { r.observed = append(r.observed, liveness.Change{ID: id, E: e}) })
	r.changed, r.newerLocal = v.MergeChanges(d)
	v.SetObserver(nil)
	r.state = liveness.StateOfView(v)
	return r
}

// checkMergeBack merges d, which v published when its reference changes
// were ref, three ways — back into v (the bounded path), into an
// independent copy (the general path), and as the sparse changes ref into
// another copy — and requires the same changed ids, newerLocal, observer
// calls and final view. It returns the bounded merge's record.
func checkMergeBack(t *testing.T, v *liveness.View, d liveness.Delta, ref []liveness.Change, what string) mergeRecord {
	t.Helper()
	general, sparse := liveness.CloneView(v), liveness.CloneView(v)
	bounded := recordMerge(v, d)
	for name, got := range map[string]mergeRecord{
		"general": recordMerge(general, d),
		"sparse":  recordMerge(sparse, liveness.Changes(ref)),
	} {
		if !reflect.DeepEqual(got, bounded) {
			t.Fatalf("%s: %s merge\n%+v\nbounded merge\n%+v", what, name, got, bounded)
		}
	}
	return bounded
}

// TestGossipDeltaMatchesReference runs seeded mutation scripts over views
// with local and non-local nodes, sized on and around the edges of the
// snapshot chunks (64 ids). For every base version it holds the published
// delta to the reference entries, and its counted size, written length and
// bytes to the reference encoding. Then it merges a delta, taken some
// mutations earlier, back three ways (checkMergeBack).
func TestGossipDeltaMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 48; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := []int{1, 7, 40, 200, 63, 64, 65, 129}[seed%8]
		mod := 2 + int(seed%3)
		v := liveness.NewView(n, func(id int) bool { return id%mod == 0 })
		for step := 0; step < 80; step++ {
			mutate(rng, v)
			if step%40 == 39 {
				for base := uint64(0); base <= v.Version(); base++ {
					d, ver := v.Since(base)
					want, _ := liveness.SinceReference(v, base)
					if got := liveness.ChangesOf(d); ver != v.Version() || !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d base %d: Since = %+v at %d, reference %+v at %d",
							seed, base, got, ver, want, v.Version())
					}
					checkTail(t, v, base, d, ver)
				}
			}

			base := uint64(rng.Int63n(int64(v.Version() + 1)))
			d, _ := v.Since(base)
			ref, _ := liveness.SinceReference(v, base)
			for k := rng.Intn(4); k > 0; k-- {
				mutate(rng, v)
			}
			checkMergeBack(t, v, d, ref, fmt.Sprintf("seed %d step %d base %d", seed, step, base))
		}
	}
}

// TestMergeBackAcrossChunks merges back a delta spanning two chunks of the
// snapshot that published it (ids 5 and 70, chunks 0 and 1), after the
// view rewrote one of them — a later mutation and a later snapshot replace
// the chunk's frozen copy — and not the other, which the view still shares
// with the delta; or rewrote both, or only a chunk outside the delta. The
// bounded merge must skip only shared chunks: it must match the general
// and sparse merges, and report newer local records exactly when a
// rewrite touched one of the delta's entries.
func TestMergeBackAcrossChunks(t *testing.T) {
	for _, c := range []struct {
		name      string
		after     func(v *liveness.View)
		wantNewer bool
	}{
		{"rewritten", func(v *liveness.View) { v.MarkDead(70) }, true},
		{"rewritten-elsewhere", func(v *liveness.View) { v.MarkDead(100) }, false},
		{"outside", func(v *liveness.View) { v.MarkDead(140) }, false},
		{"both", func(v *liveness.View) { v.MarkAlive(5); v.SetSP(71, 3) }, true},
	} {
		v := liveness.NewView(150, func(id int) bool { return id%2 == 0 })
		base := v.Version()
		v.MarkDead(5)
		v.SetSP(70, 1)
		v.SetSP(71, 2)
		d, _ := v.Since(base)
		ref, _ := liveness.SinceReference(v, base)
		c.after(v)
		v.Since(0) // a later snapshot re-freezes the rewritten chunk
		got := checkMergeBack(t, v, d, ref, c.name)
		if got.newerLocal != c.wantNewer || got.changed != nil {
			t.Fatalf("%s: merge-back changed %v, newerLocal %v; want nothing changed, newerLocal %v",
				c.name, got.changed, got.newerLocal, c.wantNewer)
		}
	}
}

// TestSizeMemoMatchesReference sizes one snapshot at interleaved and
// repeated bases — more than it memoizes in place — before and after the
// view moves on, and holds every sizing to the reference changes of the
// version the snapshot was taken at. Deltas of the later version are held
// to theirs in the same interleaving.
func TestSizeMemoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := liveness.NewView(200, func(id int) bool { return id < 100 })
	for k := 0; k < 120; k++ {
		mutate(rng, v)
	}
	type sized struct {
		d    liveness.Delta
		want [3]int
	}
	take := func() []sized {
		var out []sized
		for base := uint64(0); base <= v.Version(); base += 7 {
			d, _ := v.Since(base)
			ref, _ := liveness.SinceReference(v, base)
			n, eb, gb := liveness.Changes(ref).Size()
			out = append(out, sized{d, [3]int{n, eb, gb}})
		}
		return out
	}
	check := func(when string, ds []sized) {
		t.Helper()
		for _, i := range rng.Perm(len(ds)) {
			for rep := 0; rep < 2; rep++ {
				n, eb, gb := ds[i].d.Size()
				if got := [3]int{n, eb, gb}; got != ds[i].want {
					t.Fatalf("%s: delta %d sized %v, reference %v", when, i, got, ds[i].want)
				}
			}
		}
	}
	old := take()
	check("before", old)
	for k := 0; k < 10; k++ {
		mutate(rng, v)
	}
	check("after the view moved", old)
	now := take()
	check("new version", now)
	check("old version again", old)
}

// TestGossipDeltaSizes pins Size on the shapes whose cost it shortcuts: a
// full delta is sized from the cached total, and a sparse one from its
// entries, both equal to the bytes the reference encoders write.
func TestGossipDeltaSizes(t *testing.T) {
	v := liveness.NewView(200, func(id int) bool { return id < 100 })
	for id := 0; id < 200; id += 7 {
		v.SetSP(id, id%13)
		v.MarkDead(id + 1)
	}
	full, _ := v.Since(0)
	entries, _ := liveness.VersionedSnapshotReference(v)
	var ref wire.Enc
	encodeEntriesReference(&ref, entries)
	n, entryBytes, gapBytes := full.Size()
	if got := wire.UvarintLen(uint64(n)) + entryBytes; n != 200 || gapBytes != 200 || got != ref.Len() {
		t.Fatalf("full delta sized n=%d entries=%dB gaps=%dB, reference %d B", n, entryBytes, gapBytes, ref.Len())
	}
	sum := 0
	for _, e := range entries {
		sum += e.WireLen()
	}
	if sum != entryBytes {
		t.Fatalf("cached total %d B, entries sum to %d B", entryBytes, sum)
	}
	ref = wire.Enc{}
	changes := liveness.ChangesOf(full)[150:]
	encodeChangesReference(&ref, changes)
	n, entryBytes, gapBytes = liveness.Changes(changes).Size()
	if got := wire.UvarintLen(uint64(n)) + entryBytes + gapBytes; got != ref.Len() {
		t.Fatalf("sparse delta sized %d B, reference %d B", got, ref.Len())
	}
	if s := fmt.Sprint(liveness.Delta{}.Size()); s != "0 0 0" {
		t.Fatalf("empty delta sized %s", s)
	}
}
