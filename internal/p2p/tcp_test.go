package p2p

import (
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2psum/internal/topology"
	"p2psum/internal/wire"
)

// The TCP transport suite runs two real transports over loopback sockets
// inside one test process: handler delivery across processes, the
// drop-echo failure-detection path, distributed settle under ping-pong
// traffic, barriers, and the frame-exact byte accounting.

// tcpTestPayload is a codec-registered test payload.
type tcpTestPayload struct {
	N    int64
	Text string
}

func init() {
	wire.Register("tcp-test", wire.PayloadCodec{
		Encode: func(e *wire.Enc, payload any) error {
			p := payload.(tcpTestPayload)
			e.Varint(p.N)
			e.String(p.Text)
			return nil
		},
		Decode: func(data []byte) (any, error) {
			d := wire.NewDec(data)
			p := tcpTestPayload{N: d.Varint(), Text: d.String()}
			return p, d.Done()
		},
	})
}

// tcpPair builds two connected transports over a line graph: a hosts the
// first split nodes, b the rest.
func tcpPair(t *testing.T, n, split int) (a, b *TCPTransport) {
	t.Helper()
	g := topology.NewGraph(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1, 0.01); err != nil {
			t.Fatal(err)
		}
	}
	var localA, localB []NodeID
	for i := 0; i < n; i++ {
		if i < split {
			localA = append(localA, NodeID(i))
		} else {
			localB = append(localB, NodeID(i))
		}
	}
	a, err := NewTCPTransport(g, TCPConfig{Listen: "127.0.0.1:0", Local: localA})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	b, err = NewTCPTransport(g, TCPConfig{Listen: "127.0.0.1:0", Local: localB})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	hostsA := make(map[NodeID]string)
	hostsB := make(map[NodeID]string)
	for _, id := range localB {
		hostsA[id] = b.ListenAddr()
	}
	for _, id := range localA {
		hostsB[id] = a.ListenAddr()
	}
	if err := a.SetHosts(hostsA); err != nil {
		t.Fatal(err)
	}
	if err := b.SetHosts(hostsB); err != nil {
		t.Fatal(err)
	}
	if err := a.DialPeers(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := b.DialPeers(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestTCPDeliveryAcrossProcesses(t *testing.T) {
	a, b := tcpPair(t, 2, 1)
	var (
		mu  sync.Mutex
		got []tcpTestPayload
	)
	b.SetHandler(1, func(msg *Message) {
		mu.Lock()
		got = append(got, msg.Payload.(tcpTestPayload))
		mu.Unlock()
	})
	want := tcpTestPayload{N: -77, Text: "hello over tcp"}
	a.SendNew("tcp-test", 0, 1, 0, want)
	a.Settle()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != want {
		t.Fatalf("delivered %v, want [%v]", got, want)
	}
	if c := a.Counter().Get("tcp-test"); c != 1 {
		t.Errorf("sender counted %d messages", c)
	}
}

func TestTCPDropEchoForOfflineRemote(t *testing.T) {
	a, b := tcpPair(t, 2, 1)
	b.SetHandler(1, func(*Message) {})
	b.SetOnline(1, false)
	var dropped atomic.Int64
	a.SetDrop(func(msg *Message) {
		if msg.To == 1 && msg.From == 0 {
			dropped.Add(1)
		}
	})
	a.SendNew("tcp-test", 0, 1, 0, tcpTestPayload{N: 1})
	// The echo crosses two sockets; distributed settle must cover it.
	a.Settle()
	b.Settle()
	if dropped.Load() != 1 {
		t.Fatalf("drop callback ran %d times, want 1", dropped.Load())
	}
}

func TestTCPSettleCoversPingPong(t *testing.T) {
	a, b := tcpPair(t, 2, 1)
	const rounds = 20
	var hops atomic.Int64
	// Each delivery volleys the message back until TTL is exhausted: the
	// chain crosses the socket 2*rounds times and Settle on the driver
	// side must wait for all of it.
	volley := func(tr *TCPTransport) Handler {
		return func(msg *Message) {
			hops.Add(1)
			if msg.TTL > 0 {
				tr.SendNew("tcp-test", msg.To, msg.From, msg.TTL-1, tcpTestPayload{N: int64(msg.TTL)})
			}
		}
	}
	a.SetHandler(0, volley(a))
	b.SetHandler(1, volley(b))
	a.SendNew("tcp-test", 0, 1, 2*rounds, tcpTestPayload{})
	a.Settle()
	if got := hops.Load(); got != 2*rounds+1 {
		t.Fatalf("settle returned after %d hops, want %d", got, 2*rounds+1)
	}
}

func TestTCPByteAccountingFrameExact(t *testing.T) {
	a, b := tcpPair(t, 3, 2)
	a.SetHandler(1, func(*Message) {})
	b.SetHandler(2, func(*Message) {})
	for i := 0; i < 5; i++ {
		a.SendNew("tcp-test", 0, 1, 0, tcpTestPayload{N: int64(i), Text: "local"})  // stays in-process
		a.SendNew("tcp-test", 0, 2, 0, tcpTestPayload{N: int64(i), Text: "remote"}) // crosses the socket
	}
	a.Settle()
	b.Settle()
	wsA, wsB := a.WireStats(), b.WireStats()
	if wsA.SentFrames != 5 || wsA.LocalFrames != 5 {
		t.Fatalf("wire stats = %+v, want 5 sent + 5 local", wsA)
	}
	// Every byte that left A's socket arrived at B, length-verified.
	if wsA.SentBytes != wsB.RecvBytes || wsB.RecvFrames != wsA.SentFrames {
		t.Fatalf("A sent %d B in %d frames, B received %d B in %d frames",
			wsA.SentBytes, wsA.SentFrames, wsB.RecvBytes, wsB.RecvFrames)
	}
	// The reported volume is exactly the sum of encoded frame lengths.
	if total := a.Bytes().Total(); total != wsA.SentBytes+wsA.LocalBytes {
		t.Fatalf("Bytes() total = %d, want sent %d + local %d", total, wsA.SentBytes, wsA.LocalBytes)
	}
	// And it matches an independent re-encoding of the frames.
	var want int64
	for i := 0; i < 5; i++ {
		for to, text := range map[NodeID]string{1: "local", 2: "remote"} {
			frame := encodeFrame(&Message{Type: "tcp-test", From: 0, To: to,
				Payload: tcpTestPayload{N: int64(i), Text: text}})
			want += int64(len(frame))
		}
	}
	if total := a.Bytes().Total(); total != want {
		t.Fatalf("Bytes() total = %d, want re-encoded sum %d", total, want)
	}
}

// TestFrameSizeMatchesEncode pins the counting path (what the in-memory
// transports charge) to the buffer path (what the TCP transport puts on
// the socket): the two must agree byte-for-byte or cross-transport byte
// figures drift apart.
func TestFrameSizeMatchesEncode(t *testing.T) {
	for _, msg := range []*Message{
		{Type: "plain", From: 0, To: 1},
		{Type: "x", From: 1 << 18, To: 3, TTL: 7, Hops: 12},
		{Type: "tcp-test", From: 3, To: 9, TTL: 4, Hops: 2,
			Payload: tcpTestPayload{N: -12345, Text: "sized-exactly"}},
		{Type: "tcp-test", From: 0, To: 0, Payload: tcpTestPayload{}},
	} {
		frame := encodeFrame(msg)
		if size := frameSize(msg); int64(len(frame)) != size {
			t.Errorf("%+v: frameSize %d != encoded length %d", msg, size, len(frame))
		}
	}
}

func TestTCPBarrier(t *testing.T) {
	a, b := tcpPair(t, 2, 1)
	var reached atomic.Int32
	done := make(chan error, 2)
	go func() {
		err := a.Barrier(1, 5*time.Second)
		reached.Add(1)
		done <- err
	}()
	go func() {
		time.Sleep(50 * time.Millisecond) // b arrives late; a must wait
		err := b.Barrier(1, 5*time.Second)
		reached.Add(1)
		done <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if reached.Load() != 2 {
		t.Fatal("barrier released without both sides")
	}
}

// TestTCPReconnectWithBackoff breaks the registered peer link and asserts
// the background redial loop re-establishes it — re-handshaking hello — so
// a later send crosses the socket again instead of dying in the drop path.
func TestTCPReconnectWithBackoff(t *testing.T) {
	a, b := tcpPair(t, 2, 1)
	var delivered atomic.Int64
	b.SetHandler(1, func(*Message) { delivered.Add(1) })
	a.SendNew("tcp-test", 0, 1, 0, tcpTestPayload{N: 1})
	a.Settle()
	if delivered.Load() != 1 {
		t.Fatalf("pre-break delivery count = %d", delivered.Load())
	}

	// Break the link from A's side: both endpoints observe the dead socket
	// and start their bounded-backoff redial loops.
	conn, ok := a.liveConn(b.ListenAddr())
	if !ok {
		t.Fatal("no registered connection to B")
	}
	a.connDead(conn)

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := a.liveConn(b.ListenAddr()); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reconnect loop never re-registered the peer connection")
		}
		time.Sleep(10 * time.Millisecond)
	}
	a.SendNew("tcp-test", 0, 1, 0, tcpTestPayload{N: 2})
	a.Settle()
	b.Settle()
	if delivered.Load() != 2 {
		t.Fatalf("post-reconnect delivery count = %d, want 2", delivered.Load())
	}
}

// TestTCPSettleForgetsFramesLostWithConnection is the regression test for
// a distributed Settle that never returned. A data frame is counted on a
// connection whose far end cuts it unread, so no handler ever sees the
// frame; a process then comes up at the same address and the redial loop
// reaches it. Settle must compare the new connection's own counters and
// return, instead of waiting forever for the frame that died with the old
// socket.
func TestTCPSettleForgetsFramesLostWithConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	g := topology.NewGraph(2)
	if err := g.AddEdge(0, 1, 0.01); err != nil {
		t.Fatal(err)
	}
	a, err := NewTCPTransport(g, TCPConfig{
		Listen: "127.0.0.1:0",
		Local:  []NodeID{0},
		Hosts:  map[NodeID]string{1: addr},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)

	// The send dials the listener and counts its frame on that connection;
	// the far end closes the socket without reading a byte.
	a.SendNew("tcp-test", 0, 1, 0, tcpTestPayload{N: 1})
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	c.Close()
	waitFor(t, "A to notice the cut", func() bool {
		_, ok := a.liveConn(addr)
		return !ok
	})

	b, err := NewTCPTransport(g, TCPConfig{
		Listen: addr,
		Local:  []NodeID{1},
		Hosts:  map[NodeID]string{0: a.ListenAddr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	var delivered atomic.Int64
	b.SetHandler(1, func(*Message) { delivered.Add(1) })
	waitFor(t, "the redial loop to reach the new process", func() bool {
		_, ok := a.liveConn(addr)
		return ok
	})

	settled := make(chan struct{})
	go func() {
		a.Settle()
		close(settled)
	}()
	select {
	case <-settled:
	case <-time.After(10 * time.Second):
		t.Fatal("Settle still waiting for a frame lost with a cut connection")
	}
	a.SendNew("tcp-test", 0, 1, 0, tcpTestPayload{N: 2})
	a.Settle()
	if got := delivered.Load(); got != 1 {
		t.Fatalf("new process handled %d frames, want 1 (only the one sent after the cut)", got)
	}
}

// waitFor polls cond every few milliseconds and fails the test when it has
// not held within five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPAllConnsForgetsDeadConnections cuts the registered link again and
// again and lets the redial loops restore it each time: every cut socket
// must leave allConns, which Settle and Close scan, so the list holds the
// live connections only instead of one entry per socket ever opened.
func TestTCPAllConnsForgetsDeadConnections(t *testing.T) {
	a, b := tcpPair(t, 2, 1)
	for i := 0; i < 5; i++ {
		conn, ok := a.liveConn(b.ListenAddr())
		if !ok {
			t.Fatal("no registered connection to B")
		}
		a.connDead(conn)
		waitFor(t, "the redial loop to re-register the peer", func() bool {
			c, ok := a.liveConn(b.ListenAddr())
			return ok && c != conn
		})
	}
	for _, tr := range []*TCPTransport{a, b} {
		waitFor(t, "allConns to hold the live connections only", func() bool {
			tr.connMu.Lock()
			defer tr.connMu.Unlock()
			for _, c := range tr.allConns {
				if c.dead.Load() {
					return false
				}
			}
			return true
		})
	}
}

// stallListener accepts connections and never reads them, so a sender's
// socket and batch buffer fill up — the stalled-peer scenario of the
// backpressure budget.
func stallListener(t *testing.T) string { return heldListener(t, false) }

// mutedListener accepts connections and reads everything sent on them, but
// never writes a byte: a peer process that hangs without closing its
// sockets, so no status probe is ever answered.
func mutedListener(t *testing.T) string { return heldListener(t, true) }

// heldListener accepts connections and holds them open until the test
// ends, draining what arrives on them when read is set.
func heldListener(t *testing.T, read bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	done := make(chan struct{})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				close(done)
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
			if read {
				go io.Copy(io.Discard, c)
			}
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
		mu.Lock()
		for _, c := range held {
			c.Close()
		}
		mu.Unlock()
	})
	return ln.Addr().String()
}

// TestTCPBacklogBytesCutsStalledPeer floods a peer that accepts but never
// reads: once the kernel buffers fill, the writer blocks mid-write, the
// batch accumulates past the byte bound and the connection is cut — the
// sender falls into the §4.3 drop path instead of queueing memory without
// bound. The bound is lowered from maxFrame to 32 KiB so the test does not
// have to queue 64 MiB first.
func TestTCPBacklogBytesCutsStalledPeer(t *testing.T) {
	addr := stallListener(t)
	g := topology.NewGraph(2)
	if err := g.AddEdge(0, 1, 0.01); err != nil {
		t.Fatal(err)
	}
	lim := tcpLimits{keepAlive: keepAliveInterval, backlogBytes: 32 << 10}
	a, err := newTCPTransport(g, TCPConfig{
		Listen: "127.0.0.1:0",
		Local:  []NodeID{0},
		Hosts:  map[NodeID]string{1: addr},
	}, lim)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	var dropped atomic.Int64
	a.SetDrop(func(msg *Message) {
		if msg.To == 1 {
			dropped.Add(1)
		}
	})
	// 16 KiB frames: two are enough to trip the budget once the writer is
	// stuck, and the kernel buffers hold at most a few MB before that.
	payload := tcpTestPayload{Text: strings.Repeat("x", 16<<10)}
	cut := false
	for i := 0; i < 2000; i++ {
		a.SendNew("tcp-test", 0, 1, 0, payload)
		if _, ok := a.liveConn(addr); !ok {
			cut = true
			break
		}
	}
	if !cut {
		t.Fatal("stalled peer was never disconnected by the backlog budget")
	}
	// The send that tripped the bound was rerouted into the §4.3 drop path
	// (its frame died with the cut batch). Drop callbacks run on the
	// dispatcher; Settle cannot wait for them here, because the redial loop
	// reconnects to the peer that never answers a status probe.
	waitFor(t, "a send classified as dropped after the cut", func() bool {
		return dropped.Load() > 0
	})
}

// TestTCPSettleBoundsMutedPeer settles a transport connected to a peer that
// reads every frame but answers no status probe. Every probe times out
// after 2 s; after settleMisses of them in a row the peer counts as gone,
// so Settle returns within settleMisses+1 probe timeouts instead of
// probing it forever.
func TestTCPSettleBoundsMutedPeer(t *testing.T) {
	t.Parallel()
	addr := mutedListener(t)
	g := topology.NewGraph(2)
	if err := g.AddEdge(0, 1, 0.01); err != nil {
		t.Fatal(err)
	}
	a, err := NewTCPTransport(g, TCPConfig{
		Listen: "127.0.0.1:0",
		Local:  []NodeID{0},
		Hosts:  map[NodeID]string{1: addr},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	a.SendNew("tcp-test", 0, 1, 0, tcpTestPayload{N: 1})
	waitFor(t, "a connection to the muted peer", func() bool {
		_, ok := a.liveConn(addr)
		return ok
	})
	done := make(chan struct{})
	start := time.Now()
	go func() {
		a.Settle()
		close(done)
	}()
	bound := time.Duration(settleMisses+1)*2*time.Second + 4*time.Second
	select {
	case <-done:
		t.Logf("settled in %v", time.Since(start).Round(time.Millisecond))
	case <-time.After(bound):
		t.Fatalf("Settle still probing the muted peer after %v", bound)
	}
}

// TestTCPBacklogAgeCutsStalledPeer pins the time-domain bound: a unit
// sitting unflushed past twice the keepalive interval gets the connection
// cut on the keepalive tick even when the byte bound is never reached. The
// interval is shortened to one second: the age cut comes on the first tick
// (0.5 s), while the unanswered-ping cut cannot come before 3 s.
func TestTCPBacklogAgeCutsStalledPeer(t *testing.T) {
	addr := stallListener(t)
	g := topology.NewGraph(2)
	if err := g.AddEdge(0, 1, 0.01); err != nil {
		t.Fatal(err)
	}
	lim := tcpLimits{keepAlive: time.Second, backlogBytes: maxBacklogBytes}
	a, err := newTCPTransport(g, TCPConfig{
		Listen: "127.0.0.1:0",
		Local:  []NodeID{0},
		Hosts:  map[NodeID]string{1: addr},
	}, lim)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	a.SendNew("tcp-test", 0, 1, 0, tcpTestPayload{N: 1})
	conn, ok := a.liveConn(addr)
	if !ok {
		t.Fatal("no registered connection after the first send")
	}
	// Pretend the oldest unit has been waiting for a while: the next tick
	// must cut the connection. (Filling real kernel buffers to stall the
	// writer takes megabytes; the bytes-budget test above covers that.)
	// Wait out the first flush first, or the writer's takeBatch zeroes the
	// fake timestamp from under us.
	for deadline := time.Now().Add(3 * time.Second); conn.flushes.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("first unit never flushed")
		}
		time.Sleep(time.Millisecond)
	}
	conn.oldest.Store(time.Now().Add(-10 * time.Second).UnixNano())
	// connDead marks the connection dead before it unregisters it, so the
	// cut is complete once both have happened. The redial loop may have
	// registered a new connection to the peer by then.
	deadline := time.Now().Add(3 * time.Second)
	for {
		c, ok := a.liveConn(addr)
		registered := ok && c == conn
		if conn.dead.Load() && !registered {
			break
		}
		if time.Now().After(deadline) {
			if !conn.dead.Load() {
				t.Fatal("aged backlog never cut the connection")
			}
			t.Fatal("cut connection still registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// encodeFrame serializes msg into a wire frame through appendFrame — the
// buffer path the TCP transport puts on the socket.
func encodeFrame(msg *Message) []byte {
	e := wire.GetEnc()
	defer e.Release()
	appendFrame(e, msg)
	return append([]byte(nil), e.Bytes()...)
}
