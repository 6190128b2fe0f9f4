package routing

import (
	"math"
	"reflect"
	"testing"

	"p2psum/internal/cells"
	"p2psum/internal/core"
	"p2psum/internal/liveness"
	"p2psum/internal/p2p"
	"p2psum/internal/query"
	"p2psum/internal/saintetiq"
	"p2psum/internal/wire"
)

// Codec tests for the remote-query payloads, plus the registry-wide
// coverage gate: because this package imports core, every codec of the
// protocol stack is registered here, and the master test fails if a
// message type ever gets registered without joining the round-trip and
// truncation suites.

func sampleQuery() query.Query {
	return query.Query{
		Select: []string{"age", "bmi"},
		Where: []query.Clause{
			{Attr: "disease", Labels: []string{"malaria", "typhoid"}},
			{Attr: "age", Labels: []string{"young"}},
		},
	}
}

func sampleAnswer() *query.Answer {
	return &query.Answer{
		Query: sampleQuery(),
		Classes: []query.Class{
			{
				Interpretation: query.LabelSets{{Attr: "disease", Labels: []string{"malaria"}}},
				Answers:        query.LabelSets{{Attr: "age", Labels: []string{"young", "adult"}}},
				Weight:         12.5,
				Peers:          []saintetiq.PeerID{1, 4, 9},
				Measures: query.AttrMeasures{
					{Attr: "age", Measure: cells.Measure{Weight: 12.5, Min: 14, Max: 38, Sum: 300, SumSq: 8000}},
				},
			},
			{
				Interpretation: query.LabelSets{{Attr: "disease", Labels: []string{"typhoid"}}},
				Answers:        query.LabelSets{{Attr: "age", Labels: []string{"old"}}, {Attr: "bmi", Labels: []string{}}},
				Weight:         3,
				Peers:          []saintetiq.PeerID{2},
				Measures: query.AttrMeasures{
					{Attr: "age", Measure: cells.Measure{Weight: 3, Min: 60, Max: 70, Sum: 195, SumSq: 12725}},
					{Attr: "bmi", Measure: cells.Measure{Weight: 3, Min: math.Inf(1), Max: math.Inf(-1)}},
				},
			},
		},
	}
}

func TestQueryCodecRoundTrip(t *testing.T) {
	c, _ := wire.Lookup(MsgQuery)
	p := QueryPayload{QID: 42, Query: sampleQuery()}
	var e wire.Enc
	if err := c.Encode(&e, p); err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round-trip:\nwant %+v\ngot  %+v", p, got)
	}
}

func TestQueryResponseCodecRoundTrip(t *testing.T) {
	c, _ := wire.Lookup(MsgQueryResponse)
	for i, p := range []QueryResponsePayload{
		{QID: 7, Err: "not a summary peer"},
		{QID: 8, Peers: []p2p.NodeID{3, 5, 8}, Visited: 17, Answer: sampleAnswer()},
		{QID: 9, Answer: &query.Answer{Query: sampleQuery()}},
	} {
		var e wire.Enc
		if err := c.Encode(&e, p); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got, err := c.Decode(e.Bytes())
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("case %d round-trip:\nwant %+v\ngot  %+v", i, p, got)
		}
	}
}

// registeredSamples maps every message type the protocol stack registers
// to a representative payload. TestEveryRegisteredTypeCovered fails when a
// new registration is missing here, so round-trip and truncation coverage
// can never silently rot.
func registeredSamples() map[string]any {
	return map[string]any{
		core.MsgSumpeer:  core.SumpeerPayload{SP: 1, Round: 2, Hops: 1},
		core.MsgLocalsum: core.LocalsumPayload{Rejoin: true},
		core.MsgPush:     core.PushPayload{V: core.Stale},
		core.MsgReconcile: &core.ReconcilePayload{
			SP: 2, Seq: 3, Remaining: []p2p.NodeID{4}, Merged: []p2p.NodeID{5, 6},
			Gossip: &core.GossipTail{
				Delta: liveness.Changes([]liveness.Change{{ID: 3, E: liveness.Entry{State: liveness.Suspect, Inc: 2, SP: 2}}}),
				Ver:   8, Ack: 5,
			},
		},
		core.MsgGossip: core.GossipPayload{
			Tail: core.GossipTail{
				Full: true,
				Delta: liveness.Entries([]liveness.Entry{
					{State: liveness.Alive, Inc: 1, SP: 0},
					{State: liveness.Dead, Inc: 9, SP: liveness.NoSP},
				}),
				Ver: 12, Ack: 4,
			},
			Reply: true,
		},
		core.MsgElect:    core.ElectPayload{Dead: 7, Successor: 3},
		MsgQuery:         QueryPayload{QID: 1, Query: sampleQuery()},
		MsgQueryResponse: QueryResponsePayload{QID: 1, Peers: []p2p.NodeID{2}, Answer: sampleAnswer()},
	}
}

// exportedEqual is reflect.DeepEqual over the exported fields of two
// payloads of one type: what a codec must carry. Unexported fields are
// caches a decoder may fill in and a literal leaves zero. A payload sent
// by pointer (the ring token) is compared through the pointer.
func exportedEqual(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Type() != vb.Type() {
		return false
	}
	if va.Kind() == reflect.Pointer {
		if va.IsNil() || vb.IsNil() {
			return va.IsNil() == vb.IsNil()
		}
		va, vb = va.Elem(), vb.Elem()
	}
	if va.Kind() != reflect.Struct {
		return reflect.DeepEqual(a, b)
	}
	for i := 0; i < va.NumField(); i++ {
		if !va.Type().Field(i).IsExported() {
			continue
		}
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return false
		}
	}
	return true
}

// TestEveryRegisteredTypeCovered: each registered codec has a sample, each
// sample round-trips, and every strict prefix of its encoding fails to
// decode. Together with the richer per-type suites this discharges the
// "codec round-trip tests cover every registered message type" gate.
func TestEveryRegisteredTypeCovered(t *testing.T) {
	samples := registeredSamples()
	for _, typ := range wire.Types() {
		sample, ok := samples[typ]
		if !ok {
			t.Errorf("registered message type %q has no codec-test sample; add one to registeredSamples", typ)
			continue
		}
		c, _ := wire.Lookup(typ)
		var e wire.Enc
		if err := c.Encode(&e, sample); err != nil {
			t.Errorf("%s: encode: %v", typ, err)
			continue
		}
		full := e.Bytes()
		got, err := c.Decode(full)
		if err != nil {
			t.Errorf("%s: decode: %v", typ, err)
			continue
		}
		if !exportedEqual(got, sample) {
			t.Errorf("%s: round-trip mismatch:\nwant %+v\ngot  %+v", typ, sample, got)
		}
		// A decoded payload may carry unexported caches (the ring token's
		// id-list byte count); they must size the payload exactly.
		ce := wire.NewCountEnc()
		if err := c.Encode(ce, got); err != nil || ce.Len() != len(full) {
			t.Errorf("%s: decoded payload counts %d bytes (err %v), its encoding is %d", typ, ce.Len(), err, len(full))
		}
		for cut := 0; cut < len(full); cut++ {
			if _, err := c.Decode(full[:cut]); err == nil {
				t.Errorf("%s: truncation at %d/%d decoded successfully", typ, cut, len(full))
			}
		}
	}
}

// TestSharedDecodeEveryRegisteredType frames each sample payload and
// decodes the frame through both the copying and the borrowing decoder,
// feeding each payload back through the type's codec. The results must
// match — and must keep matching after the borrowed buffer is clobbered,
// which is exactly what the TCP read loop does when it reuses its read
// buffer: the PayloadCodec contract says Decode retains nothing.
func TestSharedDecodeEveryRegisteredType(t *testing.T) {
	samples := registeredSamples()
	for _, typ := range wire.Types() {
		sample, ok := samples[typ]
		if !ok {
			continue // TestEveryRegisteredTypeCovered reports the gap
		}
		c, _ := wire.Lookup(typ)
		var e wire.Enc
		if err := c.Encode(&e, sample); err != nil {
			t.Fatalf("%s: encode: %v", typ, err)
		}
		f := &wire.Frame{Type: typ, From: 3, To: 9, TTL: 1, HasPayload: true}
		f.Payload = e.Bytes()
		buf := f.Encode()

		fromCopy, err := wire.DecodeFrame(buf)
		if err != nil {
			t.Fatalf("%s: copying frame decode: %v", typ, err)
		}
		shared, err := wire.DecodeFrameShared(buf)
		if err != nil {
			t.Fatalf("%s: shared frame decode: %v", typ, err)
		}
		if shared.Type != typ {
			t.Fatalf("%s: shared decode canonicalized Type to %q", typ, shared.Type)
		}
		wantPayload, err := c.Decode(fromCopy.Payload)
		if err != nil {
			t.Fatalf("%s: payload decode (copy): %v", typ, err)
		}
		gotPayload, err := c.Decode(shared.Payload)
		if err != nil {
			t.Fatalf("%s: payload decode (shared): %v", typ, err)
		}
		if !reflect.DeepEqual(gotPayload, wantPayload) {
			t.Fatalf("%s: shared and copying decode disagree:\nwant %+v\ngot  %+v", typ, wantPayload, gotPayload)
		}
		// Clobber the frame buffer the shared decode borrowed from: a
		// codec that retained borrowed bytes now shows garbage.
		for i := range buf {
			buf[i] ^= 0xFF
		}
		if !reflect.DeepEqual(gotPayload, wantPayload) {
			t.Fatalf("%s: codec retained borrowed payload bytes", typ)
		}
	}
	for typ := range samples {
		if !wire.Registered(typ) {
			t.Errorf("sample %q has no registered codec", typ)
		}
	}
}
