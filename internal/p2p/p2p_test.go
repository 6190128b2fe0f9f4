package p2p

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"p2psum/internal/sim"
	"p2psum/internal/topology"
	"p2psum/internal/wire"
)

// lineGraph builds 0-1-2-...-n-1 with unit latencies.
func lineGraph(t *testing.T, n int) *topology.Graph {
	t.Helper()
	g := topology.NewGraph(n)
	for i := 0; i < n-1; i++ {
		if err := g.AddEdge(i, i+1, 0.01); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func baNetwork(t *testing.T, n int, seed int64) (*Network, *sim.Engine) {
	t.Helper()
	g, err := topology.BarabasiAlbert(n, 2, nil, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New()
	return NewNetwork(e, g, seed), e
}

func TestSendAndHandle(t *testing.T) {
	e := sim.New()
	net := NewNetwork(e, lineGraph(t, 3), 1)
	var got []string
	net.SetHandler(1, func(m *Message) { got = append(got, m.Type) })
	net.SendNew("hello", 0, 1, 0, nil)
	e.Run()
	if len(got) != 1 || got[0] != "hello" {
		t.Errorf("delivered = %v", got)
	}
	if net.Counter().Get("hello") != 1 {
		t.Errorf("counter = %d", net.Counter().Get("hello"))
	}
}

func TestSendLatency(t *testing.T) {
	e := sim.New()
	net := NewNetwork(e, lineGraph(t, 3), 1)
	var at sim.Time
	net.SetHandler(1, func(m *Message) { at = e.Now() })
	net.SendNew("x", 0, 1, 0, nil) // edge latency 0.01
	e.Run()
	if at != sim.Seconds(0.01) {
		t.Errorf("edge delivery at %v, want 0.01", at)
	}
	// Non-adjacent: directLatency.
	var at2 sim.Time
	net.SetHandler(2, func(m *Message) { at2 = e.Now() })
	start := e.Now()
	net.SendNew("x", 0, 2, 0, nil)
	e.Run()
	if at2-start != sim.Seconds(directLatency) {
		t.Errorf("direct delivery took %v, want %v", at2-start, directLatency)
	}
}

func TestSendToOffline(t *testing.T) {
	e := sim.New()
	net := NewNetwork(e, lineGraph(t, 2), 1)
	dropped := 0
	net.SetDrop(func(m *Message) { dropped++ })
	net.SetHandler(1, func(m *Message) { t.Error("offline node handled message") })
	net.SetOnline(1, false)
	net.SendNew("x", 0, 1, 0, nil)
	e.Run()
	if dropped != 1 {
		t.Errorf("dropped = %d", dropped)
	}
	// Message is still counted: it was transmitted.
	if net.Counter().Get("x") != 1 {
		t.Error("offline message not counted")
	}
	if net.OnlineCount() != 1 {
		t.Errorf("OnlineCount = %d", net.OnlineCount())
	}
	ids := net.OnlineIDs()
	if len(ids) != 1 || ids[0] != 0 {
		t.Errorf("OnlineIDs = %v", ids)
	}
}

// TestNetworkLoss pins seeded packet loss: a lost unicast is counted as
// sent, never delivered and never reported through the drop callback, and
// which sends are lost is a function of the seed alone.
func TestNetworkLoss(t *testing.T) {
	e := sim.New()
	net := NewNetwork(e, testGraph(t, 8, 4), 4)
	net.SetLossRate(1.0)
	delivered, droppedCb := 0, 0
	net.SetHandler(1, func(msg *Message) { delivered++ })
	net.SetDrop(func(msg *Message) { droppedCb++ })
	for i := 0; i < 50; i++ {
		net.SendNew("lossy", 0, 1, 0, nil)
	}
	e.Run()
	if delivered != 0 {
		t.Errorf("delivered %d messages at 100%% loss", delivered)
	}
	if droppedCb != 0 {
		t.Errorf("packet loss must be silent, drop callback fired %d times", droppedCb)
	}
	if got := net.Counter().Get("lossy"); got != 50 {
		t.Errorf("lost messages must be counted as sent, got %d", got)
	}

	// At 20% loss the delivered id set depends on the seed only, and the
	// losses draw nothing from the RandomWalk stream.
	run := func(seed int64, loss float64) (string, []NodeID) {
		e := sim.New()
		net := NewNetwork(e, testGraph(t, 8, 4), seed)
		net.SetLossRate(loss)
		var ids []string
		net.SetHandler(1, func(msg *Message) { ids = append(ids, strconv.FormatUint(msg.ID, 10)) })
		for i := 0; i < 200; i++ {
			net.SendNew("lossy", 0, 1, 0, nil)
		}
		e.Run()
		walk := net.RandomWalk("walk", 0, 5, func(NodeID) bool { return false })
		return strings.Join(ids, ","), walk.Path
	}
	a, walkA := run(4, 0.2)
	b, _ := run(4, 0.2)
	c, _ := run(5, 0.2)
	_, walkLossless := run(4, 0)
	if a != b {
		t.Errorf("one seed delivered different id sets:\n%s\n%s", a, b)
	}
	if a == c {
		t.Error("seeds 4 and 5 lost the same sends")
	}
	if n := strings.Count(a, ",") + 1; n < 140 || n > 180 {
		t.Errorf("delivered %d of 200 at 20%% loss", n)
	}
	if fmt.Sprint(walkA) != fmt.Sprint(walkLossless) {
		t.Errorf("loss moved the RandomWalk stream: %v vs %v", walkA, walkLossless)
	}
}

func TestSendPanicsOutOfRange(t *testing.T) {
	e := sim.New()
	net := NewNetwork(e, lineGraph(t, 2), 1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range send did not panic")
		}
	}()
	net.SendNew("x", 0, 99, 0, nil)
}

func TestFloodLine(t *testing.T) {
	e := sim.New()
	net := NewNetwork(e, lineGraph(t, 6), 1)
	var visited []NodeID
	reached := net.Flood("q", 0, 3, nil, func(id NodeID) { visited = append(visited, id) })
	// TTL 3 on a line reaches nodes 0..3.
	if len(reached) != 4 {
		t.Errorf("reached %v", reached)
	}
	// Transmissions: 0->1, 1->2, 2->3 = 3 (no branching on a line).
	if got := net.Counter().Get("q"); got != 3 {
		t.Errorf("flood messages = %d, want 3", got)
	}
	if len(visited) != 4 {
		t.Errorf("visit callback saw %v", visited)
	}
}

func TestFloodCountsDuplicates(t *testing.T) {
	// Triangle: flooding from 0 with TTL 2 transmits on every edge
	// direction except back to the sender; duplicates are counted.
	g := topology.NewGraph(3)
	g.AddEdge(0, 1, 0.01)
	g.AddEdge(1, 2, 0.01)
	g.AddEdge(0, 2, 0.01)
	net := NewNetwork(sim.New(), g, 1)
	reached := net.Flood("q", 0, 2, nil, nil)
	if len(reached) != 3 {
		t.Errorf("reached = %v", reached)
	}
	// 0->1, 0->2 then 1->2 (dup), 2->1 (dup) = 4 transmissions.
	if got := net.Counter().Get("q"); got != 4 {
		t.Errorf("messages = %d, want 4 (duplicates hit the wire)", got)
	}
}

func TestFloodSkipsOffline(t *testing.T) {
	e := sim.New()
	net := NewNetwork(e, lineGraph(t, 5), 1)
	net.SetOnline(2, false)
	reached := net.Flood("q", 0, 4, nil, nil)
	if reached[NodeID(3)] || reached[NodeID(4)] {
		t.Error("flood passed through an offline node")
	}
	if !reached[NodeID(1)] {
		t.Error("flood failed to reach node 1")
	}
}

func TestSelectiveWalkFindsHub(t *testing.T) {
	net, _ := baNetwork(t, 300, 7)
	// The selective walk climbs the degree gradient, so it should find a
	// high-degree node quickly.
	res := net.SelectiveWalk("find", 250, 20, func(id NodeID) bool {
		return net.Graph().Degree(int(id)) >= 10
	})
	if res.Found < 0 {
		t.Fatalf("selective walk failed: path %v", res.Path)
	}
	if res.Messages > 10 {
		t.Errorf("selective walk used %d hops; expected fast hub discovery", res.Messages)
	}
	if net.Counter().Get("find") != int64(res.Messages) {
		t.Error("walk messages not counted")
	}
}

func TestWalkAcceptAtOrigin(t *testing.T) {
	net, _ := baNetwork(t, 50, 8)
	res := net.SelectiveWalk("find", 3, 10, func(id NodeID) bool { return id == 3 })
	if res.Found != 3 || res.Messages != 0 || len(res.Path) != 1 {
		t.Errorf("origin-accepting walk = %+v", res)
	}
}

func TestWalkExhaustsBudget(t *testing.T) {
	net, _ := baNetwork(t, 50, 9)
	res := net.SelectiveWalk("find", 0, 5, func(id NodeID) bool { return false })
	if res.Found != -1 {
		t.Error("impossible predicate found a node")
	}
	if res.Messages > 5 {
		t.Errorf("walk overshot budget: %d", res.Messages)
	}
}

func TestWalkBacktracksDeadEnd(t *testing.T) {
	// Star with a pendant: 0 is the hub; walk from a leaf must backtrack
	// through the hub to find the other leaf.
	g := topology.NewGraph(4)
	g.AddEdge(0, 1, 0.01)
	g.AddEdge(0, 2, 0.01)
	g.AddEdge(0, 3, 0.01)
	net := NewNetwork(sim.New(), g, 1)
	res := net.SelectiveWalk("find", 1, 10, func(id NodeID) bool { return id == 3 })
	if res.Found != 3 {
		t.Errorf("walk with backtracking failed: %+v", res)
	}
}

func TestRandomWalk(t *testing.T) {
	net, _ := baNetwork(t, 200, 10)
	res := net.RandomWalk("find", 0, 200, func(id NodeID) bool { return id == 150 })
	// May or may not find it, but must respect the budget and count
	// messages consistently.
	if res.Messages > 200 {
		t.Errorf("random walk overshot budget: %d", res.Messages)
	}
	if res.Found >= 0 && res.Found != 150 {
		t.Errorf("random walk found the wrong node: %d", res.Found)
	}
}

func TestNeighborsFiltersOffline(t *testing.T) {
	e := sim.New()
	net := NewNetwork(e, lineGraph(t, 3), 1)
	net.SetOnline(2, false)
	nb := net.Neighbors(1)
	if len(nb) != 1 || nb[0] != 0 {
		t.Errorf("Neighbors = %v", nb)
	}
}

// Property: flooding with TTL t reaches exactly the online BFS ball of
// radius t (when all nodes are online).
func TestQuickFloodMatchesBFS(t *testing.T) {
	f := func(seed int64, ttlRaw uint8) bool {
		ttl := int(ttlRaw % 4)
		g, err := topology.BarabasiAlbert(80, 2, nil, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		net := NewNetwork(sim.New(), g, seed)
		reached := net.Flood("q", 0, ttl, nil, nil)
		for v := 0; v < g.Len(); v++ {
			if reached[NodeID(v)] != (g.Hops(0, v, ttl) <= ttl) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: selective walks never revisit a node.
func TestQuickWalkNoRevisit(t *testing.T) {
	f := func(seed int64) bool {
		g, err := topology.BarabasiAlbert(60, 2, nil, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		net := NewNetwork(sim.New(), g, seed)
		res := net.SelectiveWalk("w", 5, 30, func(NodeID) bool { return false })
		seen := make(map[NodeID]bool)
		for _, id := range res.Path {
			if seen[id] {
				return false
			}
			seen[id] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestByteAccounting(t *testing.T) {
	e := sim.New()
	net := NewNetwork(e, lineGraph(t, 3), 1)
	net.SetHandler(1, func(*Message) {})
	net.SendNew("plain", 0, 1, 0, nil)
	e.Run()
	// A payload-less message is serializable without a codec: it is
	// charged its real encoded frame length.
	frame := encodeFrame(&Message{Type: "plain", From: 0, To: 1})
	if got := net.Bytes().Get("plain"); got != int64(len(frame)) {
		t.Errorf("plain bytes = %d, want frame length %d", got, len(frame))
	}
	if got := net.Bytes().Total(); got != int64(len(frame)) {
		t.Errorf("total bytes = %d, want %d", got, len(frame))
	}
}

func init() {
	wire.Register("strict-test", wire.PayloadCodec{
		Encode: func(e *wire.Enc, payload any) error {
			n, ok := payload.(int64)
			if !ok {
				return fmt.Errorf("strict-test: payload is %T, want int64", payload)
			}
			e.Varint(n)
			return nil
		},
		Decode: func(data []byte) (any, error) {
			d := wire.NewDec(data)
			n := d.Varint()
			return n, d.Done()
		},
	})
}

// TestUnframeablePayloadPanics: a payload the codec registry cannot frame
// — its message type has no codec, or the codec rejects it — is a wiring
// bug, so every transport's send panics, naming the message type and the
// payload's Go type, instead of charging an estimate or dropping it.
func TestUnframeablePayloadPanics(t *testing.T) {
	type unknown struct{ X int }
	payloads := []struct {
		typ     string
		payload any
		goType  string
	}{
		{"no-codec-type", unknown{X: 1}, "p2p.unknown"},
		{"strict-test", "not an int64", "string"},
	}
	transports := map[string]func(t *testing.T) Transport{
		"Network": func(t *testing.T) Transport { return NewNetwork(sim.New(), lineGraph(t, 2), 1) },
		"Channel": func(t *testing.T) Transport {
			ct := NewChannelTransport(lineGraph(t, 2), 1, ChannelConfig{LatencyScale: time.Millisecond})
			t.Cleanup(ct.Close)
			return ct
		},
		"TCP": func(t *testing.T) Transport {
			a, _ := tcpPair(t, 2, 1)
			return a
		},
	}
	for name, mk := range transports {
		for _, p := range payloads {
			t.Run(name+"/"+p.typ, func(t *testing.T) {
				tr := mk(t)
				func() {
					defer func() {
						msg, _ := recover().(string)
						if !strings.Contains(msg, strconv.Quote(p.typ)) || !strings.Contains(msg, p.goType) {
							t.Fatalf("send panicked with %q, want the message type %q and the payload type %s", msg, p.typ, p.goType)
						}
					}()
					tr.SendNew(p.typ, 0, 1, 0, p.payload)
				}()
				// The panicking send charged nothing and left the ledger
				// usable: the next send is counted alone.
				if c, b := tr.Counter().Total(), tr.Bytes().Total(); c != 0 || b != 0 {
					t.Fatalf("panicking send charged %d messages, %d bytes", c, b)
				}
				tr.SendNew("tcp-test", 0, 1, 0, tcpTestPayload{N: 1})
				if c := tr.Counter().Total(); c != 1 {
					t.Fatalf("after the panic a send charged %d messages, want 1", c)
				}
			})
		}
	}
	// A payload-less message needs no codec: the frame alone carries it,
	// across processes too.
	a, b := tcpPair(t, 2, 1)
	var delivered atomic.Int64
	b.SetHandler(1, func(*Message) { delivered.Add(1) })
	a.SendNew("no-codec-type", 0, 1, 0, nil)
	a.Settle()
	b.Settle()
	if delivered.Load() != 1 {
		t.Fatalf("nil-payload message delivered %d times, want 1", delivered.Load())
	}
}
