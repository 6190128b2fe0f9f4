package core

import (
	"fmt"

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
	wire.Register(MsgElect, wire.PayloadCodec{Encode: encodeElect, Decode: decodeElect})
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
// path of every data-level message, about 180 ns per node and no allocation
// when the transport only counts the bytes).
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

// encodeLivenessEntries appends a length-prefixed liveness vector: per
// entry the incarnation and state share one uvarint (inc<<2 | state, the
// state fits two bits), followed by the SP claim.
func encodeLivenessEntries(e *wire.Enc, entries []liveness.Entry) {
	e.Uvarint(uint64(len(entries)))
	for _, en := range entries {
		e.Uvarint(en.Inc<<2 | uint64(en.State))
		e.Varint(int64(en.SP))
	}
}

// decodeLivenessEntries reverses encodeLivenessEntries (nil for an empty
// vector). Truncation latches into the Dec for Done to report; an invalid
// state value is a hard error — it cannot rely on Done, because the
// corrupt entry may be the vector's last and leave no unread tail.
func decodeLivenessEntries(d *wire.Dec) ([]liveness.Entry, error) {
	n := d.Uvarint()
	if d.Err() != nil || n == 0 {
		return nil, d.Err()
	}
	var out []liveness.Entry
	for i := uint64(0); i < n; i++ {
		packed := d.Uvarint()
		sp := d.Varint()
		if d.Err() != nil {
			return nil, d.Err()
		}
		st := liveness.State(packed & 3)
		if st > liveness.Dead {
			return nil, fmt.Errorf("core: invalid liveness state %d in gossip vector", st)
		}
		out = append(out, liveness.Entry{State: st, Inc: packed >> 2, SP: int(sp)})
	}
	return out, nil
}

// encodeLivenessChanges appends a delta — entries named by id — with the
// ids gap-encoded: changes arrive ascending (liveness.Since), so each id
// is written as the uvarint distance to its predecessor (the first as
// id+1). A sparse delta over a large overlay costs one or two bytes of id
// per entry no matter how high the ids run.
func encodeLivenessChanges(e *wire.Enc, delta []liveness.Change) {
	e.Uvarint(uint64(len(delta)))
	prev := -1
	for _, c := range delta {
		e.Uvarint(uint64(c.ID - prev))
		e.Uvarint(c.E.Inc<<2 | uint64(c.E.State))
		e.Varint(int64(c.E.SP))
		prev = c.ID
	}
}

// decodeLivenessChanges reverses encodeLivenessChanges (nil for an empty
// delta). A zero id gap or an invalid state is a hard error, like in
// decodeLivenessEntries.
func decodeLivenessChanges(d *wire.Dec) ([]liveness.Change, error) {
	n := d.Uvarint()
	if d.Err() != nil || n == 0 {
		return nil, d.Err()
	}
	var out []liveness.Change
	prev := -1
	for i := uint64(0); i < n; i++ {
		gap := d.Uvarint()
		packed := d.Uvarint()
		sp := d.Varint()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if gap == 0 {
			return nil, fmt.Errorf("core: non-ascending id in gossip delta")
		}
		st := liveness.State(packed & 3)
		if st > liveness.Dead {
			return nil, fmt.Errorf("core: invalid liveness state %d in gossip delta", st)
		}
		id := prev + int(gap)
		out = append(out, liveness.Change{ID: id, E: liveness.Entry{State: st, Inc: packed >> 2, SP: int(sp)}})
		prev = id
	}
	return out, nil
}

// encodeGossipTail appends one gossip tail: the full/delta marker, the
// version pair, and the entries in the matching shape.
func encodeGossipTail(e *wire.Enc, t *GossipTail) {
	e.Bool(t.Full)
	e.Uvarint(t.Ver)
	e.Uvarint(t.Ack)
	if t.Full {
		encodeLivenessEntries(e, t.Entries)
	} else {
		encodeLivenessChanges(e, t.Delta)
	}
}

// decodeGossipTail reverses encodeGossipTail.
func decodeGossipTail(d *wire.Dec) (GossipTail, error) {
	t := GossipTail{Full: d.Bool(), Ver: d.Uvarint(), Ack: d.Uvarint()}
	var err error
	if t.Full {
		t.Entries, err = decodeLivenessEntries(d)
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

func encodeElect(e *wire.Enc, payload any) error {
	p, ok := payload.(ElectPayload)
	if !ok {
		return badPayload(MsgElect, payload)
	}
	e.Varint(int64(p.Dead))
	e.Varint(int64(p.Successor))
	return nil
}

func decodeElect(data []byte) (any, error) {
	d := wire.NewDec(data)
	p := ElectPayload{
		Dead:      p2p.NodeID(d.Varint()),
		Successor: p2p.NodeID(d.Varint()),
	}
	return p, d.Done()
}

// encodeNodeIDs appends a length-prefixed node id list.
func encodeNodeIDs(e *wire.Enc, ids []p2p.NodeID) {
	e.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		e.Varint(int64(id))
	}
}

// decodeNodeIDs reverses encodeNodeIDs (nil for an empty list, matching
// the zero value the protocol builds with append).
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

func encodeReconcile(e *wire.Enc, payload any) error {
	p, ok := payload.(ReconcilePayload)
	if !ok {
		return badPayload(MsgReconcile, payload)
	}
	e.Varint(int64(p.SP))
	e.Varint(int64(p.Seq))
	encodeNodeIDs(e, p.Remaining)
	encodeNodeIDs(e, p.Merged)
	encodeLivenessTail(e, p.Gossip)
	return encodeTree(e, p.NewGS)
}

func decodeReconcile(data []byte) (any, error) {
	d := wire.NewDec(data)
	p := ReconcilePayload{
		SP:        p2p.NodeID(d.Varint()),
		Seq:       int(d.Varint()),
		Remaining: decodeNodeIDs(d),
		Merged:    decodeNodeIDs(d),
	}
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
