package p2p

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2psum/internal/sim"
	"p2psum/internal/topology"
)

func testGraph(t *testing.T, n int, seed int64) *topology.Graph {
	t.Helper()
	g, err := topology.BarabasiAlbert(n, 2, nil, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestChannelTransportDelivery(t *testing.T) {
	g := testGraph(t, 32, 1)
	ct := NewChannelTransport(g, 1, ChannelConfig{LatencyScale: time.Millisecond})
	defer ct.Close()

	var mu sync.Mutex
	got := make(map[NodeID]int)
	for i := 0; i < ct.Len(); i++ {
		id := NodeID(i)
		ct.SetHandler(id, func(msg *Message) {
			mu.Lock()
			got[id]++
			mu.Unlock()
		})
	}
	for i := 1; i < ct.Len(); i++ {
		ct.SendNew("ping", 0, NodeID(i), 0, nil)
	}
	ct.Settle()

	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < ct.Len(); i++ {
		if got[NodeID(i)] != 1 {
			t.Errorf("node %d received %d messages, want 1", i, got[NodeID(i)])
		}
	}
	if n := ct.Counter().Get("ping"); n != int64(ct.Len()-1) {
		t.Errorf("counter = %d, want %d", n, ct.Len()-1)
	}
}

func TestChannelTransportHandlersSendMore(t *testing.T) {
	// Handlers that relay must have their sends drained by Settle too.
	g := testGraph(t, 16, 2)
	ct := NewChannelTransport(g, 2, ChannelConfig{})
	defer ct.Close()

	var mu sync.Mutex
	reached := 0
	ct.SetHandler(1, func(msg *Message) {
		ct.SendNew("relay", 1, 2, 0, nil)
	})
	ct.SetHandler(2, func(msg *Message) {
		mu.Lock()
		reached++
		mu.Unlock()
	})
	ct.SendNew("start", 0, 1, 0, nil)
	ct.Settle()

	mu.Lock()
	defer mu.Unlock()
	if reached != 1 {
		t.Fatalf("relayed message not delivered before Settle returned (reached=%d)", reached)
	}
}

// TestGroupedSettleWaitsForRelays: a relay chain that hops across the
// clusters of a grouped (disjoint-star) topology is drained, every hop,
// before Settle returns.
func TestGroupedSettleWaitsForRelays(t *testing.T) {
	g, _ := topology.DisjointStars(4, 4, 0.02)
	ct := NewChannelTransport(g, 1, ChannelConfig{})
	defer ct.Close()

	var mu sync.Mutex
	reached := 0
	// 0 -> 5 -> 10 -> 15, one hop into each of the four clusters.
	ct.SetHandler(5, func(msg *Message) { ct.SendNew("relay", 5, 10, 0, nil) })
	ct.SetHandler(10, func(msg *Message) { ct.SendNew("relay", 10, 15, 0, nil) })
	ct.SetHandler(15, func(msg *Message) { mu.Lock(); reached++; mu.Unlock() })
	ct.SendNew("start", 0, 5, 0, nil)
	ct.Settle()

	mu.Lock()
	defer mu.Unlock()
	if reached != 1 {
		t.Fatalf("cross-cluster relay chain incomplete before Settle returned (reached=%d)", reached)
	}
}

func TestChannelTransportOfflineDrop(t *testing.T) {
	g := testGraph(t, 16, 3)
	ct := NewChannelTransport(g, 3, ChannelConfig{})
	defer ct.Close()

	var mu sync.Mutex
	var dropped []NodeID
	ct.SetDrop(func(msg *Message) {
		mu.Lock()
		dropped = append(dropped, msg.To)
		mu.Unlock()
	})
	ct.SetHandler(5, func(msg *Message) { t.Error("offline node got a message") })
	ct.SetOnline(5, false)
	ct.SendNew("push", 0, 5, 0, nil)
	ct.Settle()

	mu.Lock()
	defer mu.Unlock()
	if len(dropped) != 1 || dropped[0] != 5 {
		t.Fatalf("dropped = %v, want [5]", dropped)
	}
	if ct.Counter().Get("push") != 1 {
		t.Error("dropped message must still be counted as sent")
	}
	if ct.OnlineCount() != ct.Len()-1 {
		t.Errorf("online count = %d, want %d", ct.OnlineCount(), ct.Len()-1)
	}
}

// TestTransportParity pins all three transports to identical traversal
// semantics: floods and selective walks are deterministic given the same
// graph and online state, so reach sets, paths and message charges must
// match — and every transport must hand back the topology it was built on.
func TestTransportParity(t *testing.T) {
	g := testGraph(t, 200, 5)
	net := NewNetwork(sim.New(), g, 5)
	ct := NewChannelTransport(g, 5, ChannelConfig{})
	defer ct.Close()
	tcp, err := NewTCPTransport(g, TCPConfig{Listen: "127.0.0.1:0", Local: []NodeID{0}})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()

	accept := func(id NodeID) bool { return id == 150 }
	var refFlood map[NodeID]bool
	var refWalk WalkResult
	var refCounts, refBytes string
	for i, tr := range []Transport{net, ct, tcp} {
		if tr.Graph() != g {
			t.Errorf("%T.Graph() is not the construction graph", tr)
		}
		tr.SetOnline(7, false)
		tr.SetOnline(13, false)
		flood := tr.Flood("f", 0, 3, nil, nil)
		walk := tr.SelectiveWalk("w", 3, 400, accept)
		counts, bytes := tr.Counter().String(), tr.Bytes().String()
		if i == 0 {
			refFlood, refWalk, refCounts, refBytes = flood, walk, counts, bytes
			continue
		}
		if !reflect.DeepEqual(flood, refFlood) {
			t.Errorf("%T flood reach set differs from Network's (%d vs %d nodes)", tr, len(flood), len(refFlood))
		}
		if !reflect.DeepEqual(walk, refWalk) {
			t.Errorf("%T selective walk %+v, Network %+v", tr, walk, refWalk)
		}
		if counts != refCounts || bytes != refBytes {
			t.Errorf("%T charged %s / %s, Network %s / %s", tr, counts, bytes, refCounts, refBytes)
		}
	}
	if refWalk.Found != 150 || refCounts == "" {
		t.Fatalf("parity script did no work: walk %+v, counts %q", refWalk, refCounts)
	}
}

func TestChannelTransportCloseDrains(t *testing.T) {
	g := testGraph(t, 16, 6)
	ct := NewChannelTransport(g, 6, ChannelConfig{LatencyScale: time.Millisecond})
	var mu sync.Mutex
	n := 0
	ct.SetHandler(1, func(msg *Message) { mu.Lock(); n++; mu.Unlock() })
	for i := 0; i < 10; i++ {
		ct.SendNew("x", 0, 1, 0, nil)
	}
	ct.Close()
	ct.Close() // idempotent
	mu.Lock()
	defer mu.Unlock()
	if n != 10 {
		t.Fatalf("Close drained %d/10 messages", n)
	}
}

// TestPerNodeSerialization: handlers and Exec closures never overlap, even
// under message storms from many senders — the one dispatcher is the
// serialization guarantee protocol state relies on, and Exec runs on it
// between deliveries.
func TestPerNodeSerialization(t *testing.T) {
	ct := NewChannelTransport(testGraph(t, 32, 7), 7, ChannelConfig{})
	defer ct.Close()
	var active, violations atomic.Int32
	enter := func() {
		if active.Add(1) != 1 {
			violations.Add(1)
		}
		time.Sleep(10 * time.Microsecond) // widen the race window
		active.Add(-1)
	}
	for i := 0; i < ct.Len(); i++ {
		ct.SetHandler(NodeID(i), func(*Message) { enter() })
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < 20; round++ {
			for i := 0; i < ct.Len(); i++ {
				ct.SendNew("a", NodeID((i+1)%32), NodeID(i), 0, nil)
				ct.SendNew("b", NodeID((i+9)%32), NodeID(i), 0, nil)
			}
		}
	}()
	for k := 0; k < 25; k++ {
		ct.Exec(func() {
			if !ct.eng.onDispatcher() {
				t.Error("Exec closure ran off the dispatcher")
			}
			enter()
		})
	}
	<-done
	ct.Settle()
	if v := violations.Load(); v != 0 {
		t.Fatalf("handlers or Exec closures overlapped %d times", v)
	}
}

// TestExecFromHandlerPanics is the regression test for the documented
// Exec-from-handler deadlock: the transport detects the misuse and panics
// with a diagnosable message instead of hanging the dispatcher forever.
func TestExecFromHandlerPanics(t *testing.T) {
	// A transport has exactly one dispatcher goroutine; the case keeps the
	// name it had when the dispatcher count was a setting.
	t.Run("dispatchers=1", func(t *testing.T) {
		ct := NewChannelTransport(testGraph(t, 8, 8), 8, ChannelConfig{})
		defer ct.Close()
		var recovered atomic.Value
		ct.SetHandler(1, func(msg *Message) {
			defer func() {
				if r := recover(); r != nil {
					recovered.Store(r)
				}
			}()
			ct.Exec(func() {}) // would deadlock; must panic
		})
		ct.SendNew("poke", 0, 1, 0, nil)
		ct.Settle()
		if r, _ := recovered.Load().(string); r == "" {
			t.Fatal("Exec from a handler did not panic")
		}
	})
}

// TestSettleFromHandlerPanics: same protection for Settle, which can never
// reach quiescence while the calling handler is itself pending.
func TestSettleFromHandlerPanics(t *testing.T) {
	ct := NewChannelTransport(testGraph(t, 8, 9), 9, ChannelConfig{})
	defer ct.Close()
	var recovered atomic.Value
	ct.SetHandler(1, func(msg *Message) {
		defer func() {
			if r := recover(); r != nil {
				recovered.Store(r)
			}
		}()
		ct.Settle()
	})
	ct.SendNew("poke", 0, 1, 0, nil)
	ct.Settle()
	if r, _ := recovered.Load().(string); r == "" {
		t.Fatal("Settle from a handler did not panic")
	}
}

// TestDropCallbackRunsOnTheLane: a message dropped at an offline receiver
// runs the drop callback on the dispatcher, never overlapping a handler —
// the callback mutates the sender's protocol state (§4.3 failure
// detection), so it needs the handlers' serialization.
func TestDropCallbackRunsOnTheLane(t *testing.T) {
	ct := NewChannelTransport(testGraph(t, 16, 10), 10, ChannelConfig{})
	defer ct.Close()
	var active, overlap, offLane, dropped atomic.Int32
	for i := 0; i < 8; i++ {
		ct.SetHandler(NodeID(i), func(*Message) {
			active.Add(1)
			time.Sleep(20 * time.Microsecond)
			active.Add(-1)
		})
	}
	ct.SetDrop(func(*Message) {
		if active.Load() != 0 {
			overlap.Add(1)
		}
		if !ct.eng.onDispatcher() {
			offLane.Add(1)
		}
		dropped.Add(1)
	})
	receiver := NodeID(9)
	ct.SetOnline(receiver, false)
	for round := 0; round < 30; round++ {
		for i := 0; i < 8; i++ {
			ct.SendNew("busy", NodeID((i+1)%8), NodeID(i), 0, nil)
		}
		ct.SendNew("lost", 1, receiver, 0, nil)
	}
	ct.Settle()
	if got := dropped.Load(); got != 30 {
		t.Fatalf("drop callback ran %d times, want 30", got)
	}
	if o, l := overlap.Load(), offLane.Load(); o != 0 || l != 0 {
		t.Fatalf("drop callback overlapped handlers %d times, ran off the dispatcher %d times", o, l)
	}
}

// TestChannelCloseCancelsTimers covers After cancellation ordering: timers
// armed for several owners while messages are in flight are stopped by
// Close before the inbox shuts, so none fire afterwards and none linger in
// the runtime, and Close still drains the messages.
func TestChannelCloseCancelsTimers(t *testing.T) {
	ct := NewChannelTransport(testGraph(t, 32, 11), 11, ChannelConfig{})
	var fired, delivered atomic.Int32
	ct.SetHandler(1, func(*Message) { delivered.Add(1) })
	for i := 0; i < 4; i++ {
		ct.After(NodeID(i*8+2), 30, func() { fired.Add(1) }) // ~30ms real
	}
	for k := 0; k < 10; k++ {
		ct.SendNew("x", 0, 1, 0, nil)
	}
	start := time.Now()
	ct.Close()
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("Close took %v with armed timers", el)
	}
	if got := delivered.Load(); got != 10 {
		t.Fatalf("Close drained %d/10 in-flight messages", got)
	}
	ct.eng.mu.Lock()
	armed := len(ct.eng.timers)
	ct.eng.mu.Unlock()
	if armed != 0 {
		t.Fatalf("%d timers still armed after Close", armed)
	}
	time.Sleep(80 * time.Millisecond) // past every timer's deadline
	if f := fired.Load(); f != 0 {
		t.Fatalf("%d timers fired after Close", f)
	}
	ct.Close() // idempotent
}
