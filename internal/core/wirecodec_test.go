package core

import (
	"math/rand"
	"reflect"
	"testing"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/data"
	"p2psum/internal/liveness"
	"p2psum/internal/p2p"
	"p2psum/internal/saintetiq"
	"p2psum/internal/wire"
)

// The codec round-trip suite: every core payload must survive
// encode -> decode with full fidelity (trees compare by canonical
// re-encoding, ids and flags field-by-field), and every truncated prefix
// of a valid encoding must decode to an error — never a panic, never a
// silently wrong payload.

// randTree summarizes a random patient relation into a real hierarchy.
func randTree(t testing.TB, seed int64, records int, peer saintetiq.PeerID) *saintetiq.Tree {
	t.Helper()
	b := bk.Medical()
	mapper, err := cells.NewMapper(b, data.PatientSchema())
	if err != nil {
		t.Fatal(err)
	}
	st := cells.NewStore(mapper)
	st.AddRelation(data.NewPatientGenerator(seed, nil).Generate("db", records))
	tr := saintetiq.New(b, saintetiq.DefaultConfig())
	if err := tr.IncorporateStore(st, peer); err != nil {
		t.Fatal(err)
	}
	return tr
}

// wireBytes canonicalizes a tree for comparison.
func wireBytes(tr *saintetiq.Tree) []byte {
	if tr == nil {
		return nil
	}
	var e wire.Enc
	tr.AppendWire(&e)
	return e.Bytes()
}

func treesEqual(a, b *saintetiq.Tree) bool {
	return string(wireBytes(a)) == string(wireBytes(b))
}

// roundTrip pushes one payload through its registered codec.
func roundTrip(t *testing.T, typ string, payload any) any {
	t.Helper()
	c, ok := wire.Lookup(typ)
	if !ok {
		t.Fatalf("no codec registered for %q", typ)
	}
	var e wire.Enc
	if err := c.Encode(&e, payload); err != nil {
		t.Fatalf("encode %q: %v", typ, err)
	}
	got, err := c.Decode(e.Bytes())
	if err != nil {
		t.Fatalf("decode %q: %v", typ, err)
	}
	return got
}

func TestSumpeerCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		p := SumpeerPayload{SP: p2p.NodeID(rng.Intn(1 << 16)), Round: rng.Intn(1 << 10), Hops: rng.Intn(8)}
		if got := roundTrip(t, MsgSumpeer, p); got != any(p) {
			t.Fatalf("round-trip %+v -> %+v", p, got)
		}
	}
}

func TestPushCodecRoundTrip(t *testing.T) {
	for _, p := range []PushPayload{
		{V: Fresh},
		{V: Stale},
		{V: Unavailable},
		{V: Stale, Gossip: sampleFullTail()},
		{V: Fresh, Gossip: sampleDeltaTail()},
	} {
		if got := roundTrip(t, MsgPush, p); !reflect.DeepEqual(got, p) {
			t.Fatalf("round-trip %+v -> %+v", p, got)
		}
	}
}

// sampleLivenessEntries exercises every state, incarnation sizes past one
// varint byte, and both SP claim shapes.
func sampleLivenessEntries() []liveness.Entry {
	return []liveness.Entry{
		{State: liveness.Alive, Inc: 0, SP: liveness.NoSP},
		{State: liveness.Suspect, Inc: 7, SP: 0},
		{State: liveness.Dead, Inc: 1 << 40, SP: 4093},
		{State: liveness.Alive, Inc: 12, SP: 2},
	}
}

// sampleFullTail wraps the sample entries in a full-snapshot tail.
func sampleFullTail() *GossipTail {
	return &GossipTail{Full: true, Delta: liveness.Entries(sampleLivenessEntries()), Ver: 42, Ack: 7}
}

// sampleDeltaTail exercises the gap-encoded id path: sparse ascending ids
// (including id 0, gap 1), every state, incarnations past one varint byte.
func sampleDeltaTail() *GossipTail {
	return &GossipTail{
		Delta: liveness.Changes([]liveness.Change{
			{ID: 0, E: liveness.Entry{State: liveness.Alive, Inc: 3, SP: liveness.NoSP}},
			{ID: 7, E: liveness.Entry{State: liveness.Suspect, Inc: 1 << 33, SP: 7}},
			{ID: 499, E: liveness.Entry{State: liveness.Dead, Inc: 2, SP: 4}},
		}),
		Ver: 1 << 20, Ack: 3,
	}
}

func TestGossipCodecRoundTrip(t *testing.T) {
	for _, p := range []GossipPayload{
		{Tail: *sampleFullTail()},
		{Tail: *sampleFullTail(), Reply: true},
		{Tail: *sampleDeltaTail()},
		{Tail: GossipTail{Ver: 9, Ack: 9}, Reply: true}, // empty delta: nothing new
	} {
		if got := roundTrip(t, MsgGossip, p); !reflect.DeepEqual(got, p) {
			t.Fatalf("round-trip %+v -> %+v", p, got)
		}
	}
}

func TestLocalsumCodecRoundTrip(t *testing.T) {
	for i, p := range []LocalsumPayload{
		{Rejoin: false},
		{Rejoin: true},
		{Rejoin: true, Tree: randTree(t, 11, 40, 3)},
		{Rejoin: false, Tree: randTree(t, 12, 5, 0)},
	} {
		got := roundTrip(t, MsgLocalsum, p).(LocalsumPayload)
		if got.Rejoin != p.Rejoin || !treesEqual(got.Tree, p.Tree) {
			t.Fatalf("case %d: round-trip mismatch", i)
		}
		if p.Tree != nil {
			if err := got.Tree.Validate(); err != nil {
				t.Fatalf("case %d: decoded tree invalid: %v", i, err)
			}
		}
	}
}

func TestReconcileCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		p := &ReconcilePayload{
			SP:  p2p.NodeID(rng.Intn(1 << 12)),
			Seq: rng.Intn(1 << 8),
		}
		for j := rng.Intn(5); j > 0; j-- {
			p.Remaining = append(p.Remaining, p2p.NodeID(rng.Intn(1<<12)))
		}
		for j := rng.Intn(5); j > 0; j-- {
			p.Merged = append(p.Merged, p2p.NodeID(rng.Intn(1<<12)))
		}
		if i%3 == 0 {
			p.NewGS = randTree(t, int64(100+i), 10+rng.Intn(30), saintetiq.PeerID(i))
		}
		if i%2 == 0 {
			p.Gossip = sampleFullTail()
		} else if i%3 == 1 {
			p.Gossip = sampleDeltaTail()
		}
		got := roundTrip(t, MsgReconcile, p).(*ReconcilePayload)
		if got.SP != p.SP || got.Seq != p.Seq ||
			!reflect.DeepEqual(got.Remaining, p.Remaining) ||
			!reflect.DeepEqual(got.Merged, p.Merged) ||
			!reflect.DeepEqual(got.Gossip, p.Gossip) ||
			!treesEqual(got.NewGS, p.NewGS) {
			t.Fatalf("case %d: round-trip mismatch:\nwant %+v\ngot  %+v", i, p, got)
		}
		if want := wire.VarintsLen(got.Remaining) + wire.VarintsLen(got.Merged); got.idBytes != want {
			t.Fatalf("case %d: decoded token counts %d id bytes, its lists hold %d", i, got.idBytes, want)
		}
	}
}

// TestNodeIDsRoundTrip sizes and round-trips random id lists (negative
// ids and ids >= 2^31 included) through wire.VarintsSized/decodeNodeIDs:
// the counting encoder, charged VarintsLen, must count exactly the bytes
// the writing one emits.
func TestNodeIDsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 500; i++ {
		var ids []p2p.NodeID
		for j := rng.Intn(40); j > 0; j-- {
			v := rng.Int63() >> rng.Intn(63)
			if rng.Intn(2) == 0 {
				v = -v - 1
			}
			ids = append(ids, p2p.NodeID(v))
		}
		var w wire.Enc
		c := wire.NewCountEnc()
		wire.VarintsSized(&w, ids, 0)
		wire.VarintsSized(c, ids, wire.VarintsLen(ids))
		if c.Len() != w.Len() {
			t.Fatalf("%v: counted %d bytes, wrote %d", ids, c.Len(), w.Len())
		}
		d := wire.NewDec(w.Bytes())
		if got := decodeNodeIDs(d); !reflect.DeepEqual(got, ids) {
			t.Fatalf("round-trip %v -> %v", ids, got)
		}
		if err := d.Done(); err != nil {
			t.Fatalf("%v: %v", ids, err)
		}
	}
}

// TestGossipCodecRejectsInvalidState: a liveness vector whose LAST entry
// carries an invalid state (bits 3) must be a hard decode error — there is
// no unread tail for Done to catch, so the decoder has to reject it itself.
func TestGossipCodecRejectsInvalidState(t *testing.T) {
	var e wire.Enc
	e.Bool(true)        // full snapshot
	e.Uvarint(9)        // Ver
	e.Uvarint(0)        // Ack
	e.Uvarint(1)        // one entry
	e.Uvarint(5<<2 | 3) // inc 5, state 3: invalid
	e.Varint(-1)        // SP claim
	e.Bool(false)       // Reply
	c, _ := wire.Lookup(MsgGossip)
	if _, err := c.Decode(e.Bytes()); err == nil {
		t.Fatal("gossip vector with an invalid trailing state decoded successfully")
	}
}

// TestGossipCodecRejectsBadDelta: delta tails reject an invalid state and
// a zero id gap (ids must ascend) even on the last entry.
func TestGossipCodecRejectsBadDelta(t *testing.T) {
	c, _ := wire.Lookup(MsgGossip)
	bad := func(build func(e *wire.Enc)) []byte {
		var e wire.Enc
		e.Bool(false) // delta
		e.Uvarint(9)  // Ver
		e.Uvarint(3)  // Ack
		build(&e)
		e.Bool(false) // Reply
		return append([]byte(nil), e.Bytes()...)
	}
	invalidState := bad(func(e *wire.Enc) {
		e.Uvarint(1)        // one change
		e.Uvarint(4)        // id gap
		e.Uvarint(5<<2 | 3) // state 3: invalid
		e.Varint(-1)
	})
	if _, err := c.Decode(invalidState); err == nil {
		t.Fatal("delta with an invalid trailing state decoded successfully")
	}
	zeroGap := bad(func(e *wire.Enc) {
		e.Uvarint(2)
		e.Uvarint(1) // id 0
		e.Uvarint(5 << 2)
		e.Varint(-1)
		e.Uvarint(0) // zero gap: ids must strictly ascend
		e.Uvarint(5 << 2)
		e.Varint(-1)
	})
	if _, err := c.Decode(zeroGap); err == nil {
		t.Fatal("delta with a zero id gap decoded successfully")
	}
}

// truncationPayloads builds one representative payload per core message
// type for the corruption test.
func truncationPayloads(t *testing.T) map[string]any {
	t.Helper()
	return map[string]any{
		MsgSumpeer:  SumpeerPayload{SP: 3, Round: 2, Hops: 1},
		MsgPush:     PushPayload{V: Stale, Gossip: sampleDeltaTail()},
		MsgLocalsum: LocalsumPayload{Rejoin: true, Tree: randTree(t, 31, 20, 2)},
		MsgReconcile: &ReconcilePayload{
			SP: 7, Seq: 9,
			Remaining: []p2p.NodeID{1, 2, 3},
			Merged:    []p2p.NodeID{4, 5},
			Gossip:    sampleFullTail(),
			NewGS:     randTree(t, 32, 15, 1),
		},
		MsgGossip: GossipPayload{Tail: *sampleFullTail(), Reply: true},
	}
}

// BenchmarkLocalsumEncode guards the Send hot path: every data-level
// message is charged its real encoded frame length, so encoding a whole
// summary must stay cheap (this is why the summary encoding is
// reflection-free).
func BenchmarkLocalsumEncode(b *testing.B) {
	c, ok := wire.Lookup(MsgLocalsum)
	if !ok {
		b.Fatal("no codec registered")
	}
	payload := LocalsumPayload{Rejoin: true, Tree: randTree(b, 41, 60, 1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var e wire.Enc
		if err := c.Encode(&e, payload); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(e.Len()))
	}
}

// BenchmarkLocalsumDecode measures the receive path of the TCP transport.
func BenchmarkLocalsumDecode(b *testing.B) {
	c, _ := wire.Lookup(MsgLocalsum)
	var e wire.Enc
	if err := c.Encode(&e, LocalsumPayload{Rejoin: true, Tree: randTree(b, 41, 60, 1)}); err != nil {
		b.Fatal(err)
	}
	buf := e.Bytes()
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCoreCodecTruncation: every strict prefix of a valid encoding decodes
// to an error for every core message type.
func TestCoreCodecTruncation(t *testing.T) {
	for typ, payload := range truncationPayloads(t) {
		c, ok := wire.Lookup(typ)
		if !ok {
			t.Fatalf("no codec registered for %q", typ)
		}
		var e wire.Enc
		if err := c.Encode(&e, payload); err != nil {
			t.Fatalf("encode %q: %v", typ, err)
		}
		full := e.Bytes()
		step := 1
		if len(full) > 512 {
			step = len(full) / 512 // large tree payloads: sample the cuts
		}
		for cut := 0; cut < len(full); cut += step {
			if _, err := c.Decode(full[:cut]); err == nil {
				t.Errorf("%s: truncation at %d/%d decoded successfully", typ, cut, len(full))
			}
		}
	}
}
