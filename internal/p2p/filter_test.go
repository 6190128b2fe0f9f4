package p2p

import (
	"sync"
	"testing"
	"time"

	"p2psum/internal/sim"
)

// The link-filter suite pins the partition hook on all three transports:
// a severed link is counted as sent, surfaces through the §4.3 drop
// callback instead of the handler, disappears from Neighbors, and heals
// the moment the filter is removed.

// cutAB severs the directed pair {a,b} in both directions.
func cutAB(a, b NodeID) LinkFilter {
	return func(from, to NodeID) bool {
		return (from == a && to == b) || (from == b && to == a)
	}
}

// TestLinkFilter runs one script over every transport. tr is the transport
// (process) hosting the sender, node 0; far is the one hosting nodes 1 and
// 2 — tr itself in memory, the second process on TCP.
func TestLinkFilter(t *testing.T) {
	const typ = "tcp-test" // registered codec, so the frame can cross a socket
	rigs := []struct {
		name  string
		build func(t *testing.T) (tr, far Transport)
	}{
		{"Network", func(t *testing.T) (Transport, Transport) {
			n := NewNetwork(sim.New(), lineGraph(t, 3), 1)
			return n, n
		}},
		{"Channel", func(t *testing.T) (Transport, Transport) {
			ct := NewChannelTransport(lineGraph(t, 3), 1, ChannelConfig{LatencyScale: time.Millisecond})
			t.Cleanup(ct.Close)
			return ct, ct
		}},
		{"TCP", func(t *testing.T) (Transport, Transport) {
			a, b := tcpPair(t, 3, 1)
			return a, b
		}},
	}
	for _, rig := range rigs {
		t.Run(rig.name, func(t *testing.T) {
			tr, far := rig.build(t)
			var mu sync.Mutex
			var delivered, dropped int
			far.SetHandler(1, func(*Message) {
				mu.Lock()
				delivered++
				mu.Unlock()
			})
			tr.SetDrop(func(*Message) {
				mu.Lock()
				dropped++
				mu.Unlock()
			})
			// send ships one message 0 → 1 and checks the running totals.
			send := func(phase string, wantDelivered, wantDropped int) {
				t.Helper()
				tr.SendNew(typ, 0, 1, 0, tcpTestPayload{N: 1, Text: phase})
				tr.Settle()
				mu.Lock()
				defer mu.Unlock()
				if delivered != wantDelivered || dropped != wantDropped {
					t.Fatalf("%s: delivered=%d dropped=%d, want %d and %d",
						phase, delivered, dropped, wantDelivered, wantDropped)
				}
			}
			acceptLast := func(id NodeID) bool { return id == 2 }

			// Every process installs the same scripted cut, like a real drill.
			tr.SetLinkFilter(cutAB(0, 1))
			far.SetLinkFilter(cutAB(0, 1))
			if nbs := tr.Neighbors(0); len(nbs) != 0 {
				t.Fatalf("Neighbors(0) across the cut = %v, want none", nbs)
			}
			if nbs := tr.Neighbors(1); len(nbs) != 1 || nbs[0] != 2 {
				t.Fatalf("Neighbors(1) = %v, want [2]", nbs)
			}
			if reached := tr.Flood("f", 0, 3, nil, nil); len(reached) != 1 {
				t.Fatalf("flood crossed the cut: reached %v", reached)
			}
			if w := tr.SelectiveWalk("w", 0, 5, acceptLast); w.Found != -1 || w.Messages != 0 {
				t.Fatalf("walk crossed the cut: %+v", w)
			}
			send("severed send", 0, 1)
			if c := tr.Counter().Get(typ); c != 1 {
				t.Fatalf("severed send counted %d, want 1 (bytes hit the wire)", c)
			}

			// Cut on the receiving side only: on TCP the frame crosses the
			// socket, is dropped at delivery and echoes back to the sender's
			// drop callback (in memory both sides are the same gate).
			tr.SetLinkFilter(nil)
			far.SetLinkFilter(cutAB(0, 1))
			send("receiver-side cut", 0, 2)

			// Heal: the link is traversable and traffic flows again.
			far.SetLinkFilter(nil)
			if nbs := tr.Neighbors(0); len(nbs) != 1 || nbs[0] != 1 {
				t.Fatalf("healed Neighbors(0) = %v, want [1]", nbs)
			}
			if reached := tr.Flood("f", 0, 3, nil, nil); len(reached) != 3 {
				t.Fatalf("healed flood reached %v, want all three nodes", reached)
			}
			if w := tr.SelectiveWalk("w", 0, 5, acceptLast); w.Found != 2 {
				t.Fatalf("healed walk: %+v, want node 2 found", w)
			}
			send("healed send", 1, 2)
			if c := tr.Counter().Get(typ); c != 3 {
				t.Fatalf("counted %d sends, want 3", c)
			}
		})
	}
}
