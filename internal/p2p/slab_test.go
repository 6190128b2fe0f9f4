package p2p

import (
	"testing"

	"p2psum/internal/sim"
	"p2psum/internal/topology"
	"p2psum/internal/wire"
)

// slabTestPayload is a codec-registered payload sent by pointer, the way
// the ring token travels.
type slabTestPayload struct {
	N    int64
	Text string
}

func init() {
	wire.Register("slab-test", wire.PayloadCodec{
		Encode: func(e *wire.Enc, payload any) error {
			p := payload.(*slabTestPayload)
			e.Varint(p.N)
			e.String(p.Text)
			return nil
		},
		Decode: func(data []byte) (any, error) {
			d := wire.NewDec(data)
			p := &slabTestPayload{N: d.Varint(), Text: d.String()}
			return p, d.Done()
		},
	})
}

// TestSendCopiesTheMessage: Send takes a copy, so a caller that reuses its
// Message after sending changes nothing in flight — and the id Send assigns
// is written back to the caller's Message as before.
func TestSendCopiesTheMessage(t *testing.T) {
	e := sim.New()
	net := NewNetwork(e, lineGraph(t, 3), 1)
	var got []Message
	net.SetHandler(1, func(m *Message) { got = append(got, *m) })
	net.SetHandler(2, func(m *Message) { got = append(got, *m) })
	msg := &Message{Type: "first", From: 0, To: 1, TTL: 3}
	net.Send(msg)
	if msg.ID == 0 {
		t.Fatal("Send did not give the caller's message its id")
	}
	id := msg.ID
	msg.Type, msg.To, msg.TTL, msg.ID = "second", 2, 4, 0
	net.Send(msg)
	e.Run()
	if len(got) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(got))
	}
	if m := got[0]; m.Type != "first" || m.To != 1 || m.TTL != 3 || m.ID != id {
		t.Errorf("first delivery = %+v: changed after Send", m)
	}
	if m := got[1]; m.Type != "second" || m.To != 2 || m.TTL != 4 {
		t.Errorf("second delivery = %+v", m)
	}
}

// TestSlabGrowsUnderAHandler: a handler that sends enough to grow the slab
// still reads its own message intact (it points into the old array), and
// the slot is released by index, so the slab is reused afterwards instead
// of growing without bound.
func TestSlabGrowsUnderAHandler(t *testing.T) {
	e := sim.New()
	net := NewNetwork(e, lineGraph(t, 3), 1)
	const fan = 100
	leaves := 0
	net.SetHandler(2, func(m *Message) { leaves++ })
	net.SetHandler(1, func(m *Message) {
		for i := 0; i < fan; i++ {
			net.SendNew("leaf", 1, 2, 0, nil)
		}
		if m.Type != "root" || m.From != 0 || m.To != 1 || m.TTL != 7 {
			t.Errorf("handler's message changed while the slab grew: %+v", *m)
		}
	})
	for round := 0; round < 3; round++ {
		net.SendNew("root", 0, 1, 7, nil)
		e.Run()
	}
	if leaves != 3*fan {
		t.Fatalf("delivered %d leaves, want %d", leaves, 3*fan)
	}
	if len(net.slab) > fan+1 {
		t.Errorf("slab holds %d slots after three rounds of at most %d in flight: released slots not reused", len(net.slab), fan+1)
	}
	if len(net.free) != len(net.slab) {
		t.Errorf("%d of %d slots free after the run, want all", len(net.free), len(net.slab))
	}
}

// TestReleasedSlotPinsNothing: once its handler or drop callback returns,
// a slot holds releasedMessage — no payload stays reachable from the slab,
// and a pointer kept past the call reads the released value, not the
// message it was handed.
func TestReleasedSlotPinsNothing(t *testing.T) {
	e := sim.New()
	net := NewNetwork(e, lineGraph(t, 3), 1)
	var kept, dropped *Message
	net.SetHandler(1, func(m *Message) { kept = m })
	net.SetDrop(func(m *Message) { dropped = m })
	net.SetOnline(2, false)
	net.SendNew("slab-test", 0, 1, 0, &slabTestPayload{N: 5, Text: "kept"})
	net.SendNew("slab-test", 1, 2, 0, &slabTestPayload{N: 6, Text: "dropped"})
	e.Run()
	if kept == nil || dropped == nil {
		t.Fatalf("handler saw %v, drop callback %v", kept, dropped)
	}
	for _, m := range []*Message{kept, dropped} {
		if *m != releasedMessage {
			t.Errorf("retained message reads %+v after release, want %+v", *m, releasedMessage)
		}
	}
	for i := range net.slab {
		if net.slab[i].Payload != nil {
			t.Errorf("slot %d still pins payload %v", i, net.slab[i].Payload)
		}
	}
}

// BenchmarkNetworkSendDeliver prices one simulated message end to end:
// SendNew (sizing through the cached codec and the network's counting
// encoder, the ledger slot, the slab copy, the delivery event) plus the
// Settle that delivers it. The payload is built once and sent by pointer,
// so nothing here is the payload's own cost; CI gates it at 0 allocs/op.
func BenchmarkNetworkSendDeliver(b *testing.B) {
	g := topology.NewGraph(2)
	if err := g.AddEdge(0, 1, 0.01); err != nil {
		b.Fatal(err)
	}
	e := sim.New()
	net := NewNetwork(e, g, 1)
	handled := 0
	net.SetHandler(1, func(m *Message) { handled++ })
	payload := &slabTestPayload{N: 1 << 20, Text: "payload"}
	net.SendNew("slab-test", 0, 1, 0, payload) // open the slot, slab, heap
	net.Settle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.SendNew("slab-test", 0, 1, 0, payload)
		net.Settle()
	}
	b.StopTimer()
	if handled != b.N+1 {
		b.Fatalf("handled %d messages, want %d", handled, b.N+1)
	}
}
