//go:build race

package p2p

import (
	"testing"

	"p2psum/internal/sim"
)

// TestRetainedMessageSeesThePoison: under the race detector a released
// slot is poisoned, so a handler that kept its *Message past the call
// reads To -1 and Type "<released>" rather than a plausible message.
func TestRetainedMessageSeesThePoison(t *testing.T) {
	e := sim.New()
	net := NewNetwork(e, lineGraph(t, 2), 1)
	var kept *Message
	net.SetHandler(1, func(m *Message) { kept = m })
	net.SendNew("slab-test", 0, 1, 0, &slabTestPayload{N: 1, Text: "x"})
	e.Run()
	if kept == nil {
		t.Fatal("message not delivered")
	}
	if kept.To != -1 || kept.Type != "<released>" || kept.Payload != nil {
		t.Errorf("retained message reads %+v after release, want the poison", *kept)
	}
}
