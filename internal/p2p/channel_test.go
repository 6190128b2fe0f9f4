package p2p

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

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
	ct := NewChannelTransport(g, 1, DefaultChannelConfig())
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
	// A handler that relays must have its sends drained by Settle too.
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

func TestChannelTransportLoss(t *testing.T) {
	g := testGraph(t, 8, 4)
	ct := NewChannelTransport(g, 4, ChannelConfig{LossRate: 1.0})
	defer ct.Close()

	delivered, droppedCb := 0, 0
	ct.SetHandler(1, func(msg *Message) { delivered++ })
	ct.SetDrop(func(msg *Message) { droppedCb++ })
	for i := 0; i < 50; i++ {
		ct.SendNew("lossy", 0, 1, 0, nil)
	}
	ct.Settle()
	if delivered != 0 {
		t.Errorf("delivered %d messages at 100%% loss", delivered)
	}
	if droppedCb != 0 {
		t.Errorf("packet loss must be silent, drop callback fired %d times", droppedCb)
	}
	if ct.Counter().Get("lossy") != 50 {
		t.Errorf("lost messages must be counted as sent, got %d", ct.Counter().Get("lossy"))
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
	ct := NewChannelTransport(g, 6, DefaultChannelConfig())
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
