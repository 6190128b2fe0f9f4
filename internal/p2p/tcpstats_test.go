package p2p

import (
	"sort"
	"testing"
	"time"

	"p2psum/internal/topology"
)

// The per-peer flow-control suite: PeerStats counters after real traffic,
// the address ordering contract, and the keepalive ping/pong RTT probe.

// singleDialPair builds two one-node transports where only a dials, so the
// pair shares a single socket: a registers the conn it dialed, b registers
// the inbound side of the same conn — which makes both directions of the
// flow counters visible from both processes.
func singleDialPair(t *testing.T, lim tcpLimits) (a, b *TCPTransport) {
	t.Helper()
	g := topology.NewGraph(2)
	if err := g.AddEdge(0, 1, 0.01); err != nil {
		t.Fatal(err)
	}
	a, err := newTCPTransport(g, TCPConfig{Listen: "127.0.0.1:0", Local: []NodeID{0}}, lim)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	b, err = newTCPTransport(g, TCPConfig{Listen: "127.0.0.1:0", Local: []NodeID{1}}, lim)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	if err := a.SetHosts(map[NodeID]string{1: b.ListenAddr()}); err != nil {
		t.Fatal(err)
	}
	if err := b.SetHosts(map[NodeID]string{0: a.ListenAddr()}); err != nil {
		t.Fatal(err)
	}
	if err := a.DialPeers(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestTCPPeerStatsFlowCounters: after a burst of data frames and a Settle,
// the sender's snapshot shows the traffic (units, bytes, at least one
// coalesced flush covering several units) and the receiver's mirror shows
// the same flow from the other side; Settle's status exchange drains the
// in-flight estimate back to zero.
func TestTCPPeerStatsFlowCounters(t *testing.T) {
	a, b := singleDialPair(t, tcpLimits{keepAliveInterval, maxBacklogBytes})
	b.SetHandler(1, func(*Message) {})
	const burst = 40
	for i := 0; i < burst; i++ {
		a.SendNew("tcp-test", 0, 1, 0, tcpTestPayload{N: int64(i), Text: "flow"})
	}
	a.Settle()

	stats := a.PeerStats()
	if len(stats) != 1 {
		t.Fatalf("sender has %d peer stats, want 1", len(stats))
	}
	st := stats[0]
	if st.Addr != b.ListenAddr() {
		t.Errorf("stat addr %q, want the peer's listen addr %q", st.Addr, b.ListenAddr())
	}
	if st.SentUnits < burst {
		t.Errorf("sent %d units, want >= %d data frames", st.SentUnits, burst)
	}
	if st.SentBytes <= 0 || st.RecvBytes <= 0 {
		t.Errorf("byte counters sent=%d recv=%d, want both positive", st.SentBytes, st.RecvBytes)
	}
	if st.Flushes < 1 || st.Flushes > st.SentUnits {
		t.Errorf("%d flushes for %d units: coalescing batches must use [1, units] writes", st.Flushes, st.SentUnits)
	}
	if st.QueuedUnits != 0 || st.QueuedBytes != 0 {
		t.Errorf("settled link still queues %d units / %d bytes", st.QueuedUnits, st.QueuedBytes)
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight %d after Settle's status exchange, want 0", st.InFlight)
	}

	peer := b.PeerStats()
	if len(peer) != 1 {
		t.Fatalf("receiver has %d peer stats, want 1", len(peer))
	}
	if peer[0].RecvUnits < burst {
		t.Errorf("receiver saw %d units, want >= %d", peer[0].RecvUnits, burst)
	}
	if peer[0].RecvBytes <= 0 {
		t.Errorf("receiver byte counter %d, want positive", peer[0].RecvBytes)
	}
}

// TestTCPPeerStatsOrdered: a process connected to two peers reports one
// snapshot per connection, ordered by peer address — the stable layout the
// p2pnode stats dump relies on.
func TestTCPPeerStatsOrdered(t *testing.T) {
	g := topology.NewGraph(3)
	for i := 0; i+1 < 3; i++ {
		if err := g.AddEdge(i, i+1, 0.01); err != nil {
			t.Fatal(err)
		}
	}
	procs := make([]*TCPTransport, 3)
	for i := range procs {
		tr, err := NewTCPTransport(g, TCPConfig{Listen: "127.0.0.1:0", Local: []NodeID{NodeID(i)}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		procs[i] = tr
	}
	for i, tr := range procs {
		hosts := make(map[NodeID]string)
		for j, other := range procs {
			if j != i {
				hosts[NodeID(j)] = other.ListenAddr()
			}
		}
		if err := tr.SetHosts(hosts); err != nil {
			t.Fatal(err)
		}
	}
	if err := procs[0].DialPeers(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	stats := procs[0].PeerStats()
	if len(stats) != 2 {
		t.Fatalf("hub has %d peer stats, want one per connection (2)", len(stats))
	}
	if !sort.SliceIsSorted(stats, func(i, j int) bool { return stats[i].Addr < stats[j].Addr }) {
		t.Errorf("peer stats not ordered by address: %q, %q", stats[0].Addr, stats[1].Addr)
	}
	want := map[string]bool{procs[1].ListenAddr(): true, procs[2].ListenAddr(): true}
	for _, st := range stats {
		if !want[st.Addr] {
			t.Errorf("unexpected peer address %q in stats", st.Addr)
		}
	}
}

// TestTCPKeepAliveRTT: on an idle link the keepalive loop sends a ping,
// the pong comes back, and the measured round trip lands in PeerStats —
// without the probe tearing down the healthy connection. The interval is
// shortened from 15 s so the probe runs within the test.
func TestTCPKeepAliveRTT(t *testing.T) {
	const interval = 100 * time.Millisecond
	a, _ := singleDialPair(t, tcpLimits{keepAlive: interval, backlogBytes: maxBacklogBytes})

	deadline := time.Now().Add(5 * time.Second)
	for {
		stats := a.PeerStats()
		if len(stats) == 1 && stats[0].RTT > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no keepalive RTT after 5s; stats: %+v", stats)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Several keepalive periods later the probed link must still be up:
	// answered pings never trip the teardown after twice the interval.
	time.Sleep(4 * interval)
	if stats := a.PeerStats(); len(stats) != 1 {
		t.Fatalf("keepalive tore down a healthy connection: %d stats", len(stats))
	}
}
