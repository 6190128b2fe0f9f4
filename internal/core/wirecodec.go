package core

import (
	"fmt"
	"math"

	"p2psum/internal/liveness"
	"p2psum/internal/p2p"
	"p2psum/internal/saintetiq"
	"p2psum/internal/wire"
)

// Wire codecs for the core protocol payloads. Registering them (from init,
// so importing core is enough) makes every transport charge these message
// types their real encoded frame length, and lets the TCP transport carry
// them between processes. The encodings are versioned at the frame layer
// (wire.FrameVersion); summaries are written inline by saintetiq's
// AppendWire — the one serialization summaries have anywhere.
//
// Contract for adding a payload: register exactly one codec per message
// type, encode every field (the round-trip tests in wirecodec_test.go
// enforce Encode(Decode(x)) == x field-by-field), and return the concrete
// value type handlers assert on.

func init() {
	wire.Register(MsgSumpeer, wire.PayloadCodec{Encode: encodeSumpeer, Decode: decodeSumpeer})
	wire.Register(MsgLocalsum, wire.PayloadCodec{Encode: encodeLocalsum, Decode: decodeLocalsum})
	wire.Register(MsgPush, wire.PayloadCodec{Encode: encodePush, Decode: decodePush})
	wire.Register(MsgReconcile, wire.PayloadCodec{Encode: encodeReconcile, Decode: decodeReconcile})
	wire.Register(MsgGossip, wire.PayloadCodec{Encode: encodeGossip, Decode: decodeGossip})
}

// badPayload reports a payload whose concrete type does not match its
// message type's codec.
func badPayload(typ string, payload any) error {
	return fmt.Errorf("core: %s codec got %T", typ, payload)
}

func encodeSumpeer(e *wire.Enc, payload any) error {
	p, ok := payload.(SumpeerPayload)
	if !ok {
		return badPayload(MsgSumpeer, payload)
	}
	e.Varint(int64(p.SP))
	e.Varint(int64(p.Round))
	e.Varint(int64(p.Hops))
	return nil
}

func decodeSumpeer(data []byte) (any, error) {
	d := wire.NewDec(data)
	p := SumpeerPayload{
		SP:    p2p.NodeID(d.Varint()),
		Round: int(d.Varint()),
		Hops:  int(d.Varint()),
	}
	return p, d.Done()
}

// encodeTree embeds an optional summary as a presence flag plus its
// compact wire encoding (saintetiq.AppendWire — this runs on the Send hot
// path of every data-level message; when the transport only counts the
// bytes it allocates nothing and sums cached node lengths, about 10 ns per
// unchanged node and 260 ns per node changed since the last count).
func encodeTree(e *wire.Enc, t *saintetiq.Tree) error {
	if t == nil {
		e.Bool(false)
		return nil
	}
	e.Bool(true)
	t.AppendWire(e)
	return nil
}

// decodeTree reverses encodeTree.
func decodeTree(d *wire.Dec) (*saintetiq.Tree, error) {
	if !d.Bool() {
		return nil, d.Err()
	}
	return saintetiq.DecodeWire(d)
}

func encodeLocalsum(e *wire.Enc, payload any) error {
	p, ok := payload.(LocalsumPayload)
	if !ok {
		return badPayload(MsgLocalsum, payload)
	}
	e.Bool(p.Rejoin)
	return encodeTree(e, p.Tree)
}

func decodeLocalsum(data []byte) (any, error) {
	d := wire.NewDec(data)
	p := LocalsumPayload{Rejoin: d.Bool()}
	tree, err := decodeTree(d)
	if err != nil {
		return nil, err
	}
	p.Tree = tree
	return p, d.Done()
}

func encodePush(e *wire.Enc, payload any) error {
	p, ok := payload.(PushPayload)
	if !ok {
		return badPayload(MsgPush, payload)
	}
	e.Uint8(uint8(p.V))
	encodeLivenessTail(e, p.Gossip)
	return nil
}

func decodePush(data []byte) (any, error) {
	d := wire.NewDec(data)
	p := PushPayload{V: Freshness(d.Uint8())}
	g, err := decodeLivenessTail(d)
	if err != nil {
		return nil, err
	}
	p.Gossip = g
	return p, d.Done()
}

// encodeLivenessEntries appends a full tail's body: the entry count, then
// every entry positionally (liveness.Entry.AppendWire). A counting Enc is
// charged the count prefix plus the delta's sized entry bytes — for a
// published full snapshot a cached total — without walking the entries.
func encodeLivenessEntries(e *wire.Enc, d liveness.Delta) {
	n, entryBytes, _ := d.Size()
	e.Uvarint(uint64(n))
	if e.Counted(entryBytes) {
		return
	}
	for _, en := range d.All() {
		en.AppendWire(e)
	}
}

// decodeLivenessEntries reverses encodeLivenessEntries into a sparse delta
// with ids 0..n-1 (empty for an empty vector), in one exact-size
// allocation. Truncation latches into the Dec for Done to report; an
// invalid state value or successor mark is a hard error — it cannot rely
// on Done, because the corrupt entry may be the vector's last and leave
// no unread tail. (A mark naming a node beyond this view is left to the
// merge, which knows the view's size.)
func decodeLivenessEntries(d *wire.Dec) (liveness.Delta, error) {
	n := d.Count()
	if d.Err() != nil || n == 0 {
		return liveness.Delta{}, d.Err()
	}
	out := make([]liveness.Change, n)
	for id := range out {
		en := liveness.ReadEntry(d, id)
		if d.Err() != nil {
			return liveness.Delta{}, d.Err()
		}
		if !en.Valid(id, math.MaxInt32) {
			return liveness.Delta{}, fmt.Errorf("core: invalid liveness entry %+v for node %d in gossip vector", en, id)
		}
		out[id] = liveness.Change{ID: id, E: en}
	}
	return liveness.Changes(out), nil
}

// encodeLivenessChanges appends a delta — entries named by id — with the
// ids gap-encoded: a delta iterates ascending, so each id is written as
// the uvarint distance to its predecessor (the first as id+1). A sparse
// delta over a large overlay costs one or two bytes of id per entry no
// matter how high the ids run. A counting Enc is charged from one sizing
// pass (liveness.Delta.Size) that encodes nothing.
func encodeLivenessChanges(e *wire.Enc, d liveness.Delta) {
	n, entryBytes, gapBytes := d.Size()
	e.Uvarint(uint64(n))
	if e.Counted(entryBytes + gapBytes) {
		return
	}
	prev := -1
	for id, en := range d.All() {
		e.Uvarint(uint64(id - prev))
		en.AppendWire(e)
		prev = id
	}
}

// decodeLivenessChanges reverses encodeLivenessChanges into a sparse delta
// (empty for an empty one), in one exact-size allocation. A zero id gap or
// an invalid state or mark is a hard error, like in decodeLivenessEntries.
func decodeLivenessChanges(d *wire.Dec) (liveness.Delta, error) {
	n := d.Count()
	if d.Err() != nil || n == 0 {
		return liveness.Delta{}, d.Err()
	}
	out := make([]liveness.Change, n)
	prev := -1
	for i := range out {
		gap := d.Uvarint()
		id := prev + int(gap)
		en := liveness.ReadEntry(d, id)
		if d.Err() != nil {
			return liveness.Delta{}, d.Err()
		}
		if gap == 0 {
			return liveness.Delta{}, fmt.Errorf("core: non-ascending id in gossip delta")
		}
		if !en.Valid(id, math.MaxInt32) {
			return liveness.Delta{}, fmt.Errorf("core: invalid liveness entry %+v for node %d in gossip delta", en, id)
		}
		out[i] = liveness.Change{ID: id, E: en}
		prev = id
	}
	return liveness.Changes(out), nil
}

// encodeGossipTail appends one gossip tail: the full/delta marker, the
// version pair, and the entries in the matching shape.
func encodeGossipTail(e *wire.Enc, t *GossipTail) {
	e.Bool(t.Full)
	e.Uvarint(t.Ver)
	e.Uvarint(t.Ack)
	if t.Full {
		encodeLivenessEntries(e, t.Delta)
	} else {
		encodeLivenessChanges(e, t.Delta)
	}
}

// decodeGossipTail reverses encodeGossipTail.
func decodeGossipTail(d *wire.Dec) (GossipTail, error) {
	t := GossipTail{Full: d.Bool(), Ver: d.Uvarint(), Ack: d.Uvarint()}
	var err error
	if t.Full {
		t.Delta, err = decodeLivenessEntries(d)
	} else {
		t.Delta, err = decodeLivenessChanges(d)
	}
	return t, err
}

// encodeLivenessTail appends an optional piggybacked gossip tail as a
// presence flag plus the tail.
func encodeLivenessTail(e *wire.Enc, t *GossipTail) {
	if t == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	encodeGossipTail(e, t)
}

// decodeLivenessTail reverses encodeLivenessTail.
func decodeLivenessTail(d *wire.Dec) (*GossipTail, error) {
	if !d.Bool() {
		return nil, d.Err()
	}
	t, err := decodeGossipTail(d)
	if err != nil {
		return nil, err
	}
	return &t, nil
}

func encodeGossip(e *wire.Enc, payload any) error {
	p, ok := payload.(GossipPayload)
	if !ok {
		return badPayload(MsgGossip, payload)
	}
	encodeGossipTail(e, &p.Tail)
	e.Bool(p.Reply)
	return nil
}

func decodeGossip(data []byte) (any, error) {
	d := wire.NewDec(data)
	tail, err := decodeGossipTail(d)
	if err != nil {
		return nil, err
	}
	p := GossipPayload{Tail: tail}
	p.Reply = d.Bool()
	return p, d.Done()
}

// decodeNodeIDs reads a length-prefixed node id list written by
// wire.VarintsSized (nil for an empty list, matching the zero value the
// protocol builds with append).
func decodeNodeIDs(d *wire.Dec) []p2p.NodeID {
	n := d.Uvarint()
	if d.Err() != nil || n == 0 {
		return nil
	}
	var out []p2p.NodeID
	for i := uint64(0); i < n; i++ {
		out = append(out, p2p.NodeID(d.Varint()))
		if d.Err() != nil {
			return nil // truncated list: the latched error reaches Done
		}
	}
	return out
}

// idListBytes returns the summed element size of the token's id lists:
// the running count the ring keeps, or a fresh O(ring) count for a
// payload built without one. Race-instrumented builds recount every time
// and panic when a running count has drifted from the lists.
func (p *ReconcilePayload) idListBytes() int {
	if p.idBytes != 0 && !checkTokenSize {
		return p.idBytes
	}
	n := wire.VarintsLen(p.Remaining) + wire.VarintsLen(p.Merged)
	if p.idBytes != 0 && p.idBytes != n {
		panic(fmt.Sprintf("core: ring token counts %d id bytes, its lists hold %d", p.idBytes, n))
	}
	return n
}

// encodeReconcile charges both id lists' elements with Remaining's
// length prefix — the token's running count covers both — so a counting
// Enc sizes a hop in O(1).
func encodeReconcile(e *wire.Enc, payload any) error {
	p, ok := payload.(*ReconcilePayload)
	if !ok || p == nil {
		return badPayload(MsgReconcile, payload)
	}
	e.Varint(int64(p.SP))
	e.Varint(int64(p.Seq))
	wire.VarintsSized(e, p.Remaining, p.idListBytes())
	wire.VarintsSized(e, p.Merged, 0)
	encodeLivenessTail(e, p.Gossip)
	return encodeTree(e, p.NewGS)
}

func decodeReconcile(data []byte) (any, error) {
	d := wire.NewDec(data)
	p := &ReconcilePayload{
		SP:        p2p.NodeID(d.Varint()),
		Seq:       int(d.Varint()),
		Remaining: decodeNodeIDs(d),
		Merged:    decodeNodeIDs(d),
	}
	p.idBytes = wire.VarintsLen(p.Remaining) + wire.VarintsLen(p.Merged)
	g, err := decodeLivenessTail(d)
	if err != nil {
		return nil, err
	}
	p.Gossip = g
	tree, err := decodeTree(d)
	if err != nil {
		return nil, err
	}
	p.NewGS = tree
	return p, d.Done()
}
