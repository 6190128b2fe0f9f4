package core

import (
	"fmt"
	"math/rand"
	"testing"

	"p2psum/internal/p2p"
	"p2psum/internal/sim"
	"p2psum/internal/topology"
	"p2psum/internal/wire"
)

// The ring token carries a running byte count of its id lists so a hop is
// sized in O(1) instead of re-walking the whole ring. These tests hold
// that count to the lists it summarizes, hop by hop, on every path that
// edits the lists: a partner merging in, an offline partner skipped, a
// token dropped in flight and re-forwarded by the §4.3 drop path, and a
// ring restarted by the loss timer.

// tokenSizeNet is a Network that checks every ring token it is handed
// before sending it, and loses a share of them on purpose so the loss
// timer restarts rings.
type tokenSizeNet struct {
	*p2p.Network
	t   *testing.T
	rng *rand.Rand
	// sent is the summed encoded frame length of the tokens passed on to
	// the Network, for comparison with what its ledger charged.
	sent                  int64
	hops, skips, inFlight int
	lost                  int
}

func (n *tokenSizeNet) SendNew(typ string, from, to p2p.NodeID, ttl int, payload any) {
	if typ != MsgReconcile {
		n.Network.SendNew(typ, from, to, ttl, payload)
		return
	}
	pl := payload.(*ReconcilePayload)
	n.hops++
	if want := wire.VarintsLen(pl.Remaining) + wire.VarintsLen(pl.Merged); pl.idBytes != want {
		n.t.Fatalf("hop %d (%d -> %d): token counts %d id bytes, its lists hold %d",
			n.hops, from, to, pl.idBytes, want)
	}
	msg := &p2p.Message{Type: typ, From: from, To: to, TTL: ttl, Payload: payload}
	counted, written := reconcileFrameSizes(n.t, msg)
	if counted != written {
		n.t.Fatalf("hop %d (%d -> %d): counted frame %d bytes, encoded frame %d",
			n.hops, from, to, counted, written)
	}
	switch r := n.rng.Intn(20); {
	case r == 0:
		// A lossy link eats the token: only the loss timer recovers.
		n.lost++
		return
	case r <= 2 && len(pl.Remaining) > 1:
		// A partner further down the ring goes offline: the token skips it.
		n.Network.SetOnline(pl.Remaining[1+n.rng.Intn(len(pl.Remaining)-1)], false)
		n.skips++
	}
	n.sent += int64(written)
	n.Network.SendNew(typ, from, to, ttl, payload)
	if to != pl.SP && n.rng.Intn(15) == 0 {
		// The recipient disconnects while the token is in flight: the
		// drop path re-forwards it from the sender.
		n.Network.SetOnline(to, false)
		n.inFlight++
	}
}

// reconcileFrameSizes returns the frame length msg is charged (its payload
// measured by a counting encoder, as the transports do) and the length of
// its actual encoded frame.
func reconcileFrameSizes(t *testing.T, msg *p2p.Message) (counted, written int) {
	t.Helper()
	c, _ := wire.Lookup(msg.Type)
	f := wire.Frame{Type: msg.Type, From: int64(msg.From), To: int64(msg.To), TTL: msg.TTL, Hops: msg.Hops, HasPayload: true}
	ce := wire.NewCountEnc()
	if err := c.Encode(ce, msg.Payload); err != nil {
		t.Fatal(err)
	}
	var we wire.Enc
	if err := c.Encode(&we, msg.Payload); err != nil {
		t.Fatal(err)
	}
	f.Payload = we.Bytes()
	return f.SizeWithPayload(ce.Len()), len(f.Encode())
}

func TestReconcileTokenSizeMatchesEncoding(t *testing.T) {
	var hops, skips, inFlight, lost, retransmits int
	for seed := int64(1); seed <= 6; seed++ {
		g, err := topology.BarabasiAlbert(300, 2, nil, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		e := sim.New()
		net := &tokenSizeNet{Network: p2p.NewNetwork(e, g, seed), t: t, rng: rand.New(rand.NewSource(seed))}
		cfg := DefaultConfig()
		cfg.GossipPiggyback = seed%2 == 0
		sys, err := NewSystem(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.ElectSummaryPeers(3)
		if err := sys.Construct(); err != nil {
			t.Fatal(err)
		}
		all := make([]p2p.NodeID, g.Len())
		for i := range all {
			all[i] = p2p.NodeID(i)
		}
		for wave := 0; wave < 6; wave++ {
			sys.MarkModifiedAll(all)
			e.Run()
			// Bring the partners knocked out mid-ring back, so the next
			// wave circulates full rings again.
			for _, id := range all {
				if !net.Online(id) {
					sys.Join(id)
				}
			}
			e.Run()
		}
		if got := sys.Transport().Bytes().Get(MsgReconcile); got != net.sent {
			t.Errorf("seed %d: ledger charged %d reconcile bytes, the encoded tokens total %d", seed, got, net.sent)
		}
		hops += net.hops
		skips += net.skips
		inFlight += net.inFlight
		lost += net.lost
		retransmits += sys.Stats().ReconcileRetransmits
	}
	t.Logf("%d hops checked: %d partners skipped offline, %d tokens dropped in flight, %d lost, %d rings retransmitted",
		hops, skips, inFlight, lost, retransmits)
	if skips == 0 || inFlight == 0 || lost == 0 || retransmits == 0 {
		t.Fatalf("a path went unexercised: skips=%d in-flight drops=%d lost=%d retransmits=%d",
			skips, inFlight, lost, retransmits)
	}
}

// BenchmarkReconcileFrameSize prices one ring hop the way the transports
// do (codec lookup, counting encode, frame header) for tokens whose
// Remaining and Merged lists hold n ids each. The running id-list count
// makes it flat in n; CI gates it at 0 allocs/op.
func BenchmarkReconcileFrameSize(b *testing.B) {
	for _, n := range []int{50, 500, 5000} {
		b.Run(fmt.Sprintf("ids=%d", n), func(b *testing.B) {
			pl := &ReconcilePayload{SP: 7, Seq: 3}
			for i := 0; i < n; i++ {
				pl.Remaining = append(pl.Remaining, p2p.NodeID(2*i+100))
				pl.Merged = append(pl.Merged, p2p.NodeID(2*i+101))
			}
			pl.idBytes = wire.VarintsLen(pl.Remaining) + wire.VarintsLen(pl.Merged)
			var payload any = pl
			f := wire.Frame{Type: MsgReconcile, From: 7, To: 100, HasPayload: true}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, _ := wire.Lookup(MsgReconcile)
				ce := wire.GetCountEnc()
				if err := c.Encode(ce, payload); err != nil {
					b.Fatal(err)
				}
				size := f.SizeWithPayload(ce.Len())
				ce.Release()
				if size == 0 {
					b.Fatal("empty frame")
				}
			}
		})
	}
}
