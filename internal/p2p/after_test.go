package p2p

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"p2psum/internal/sim"
	"p2psum/internal/topology"
)

func afterGraph(t *testing.T, seed int64) *topology.Graph {
	t.Helper()
	g, err := topology.BarabasiAlbert(8, 2, nil, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestNetworkAfter: on the event engine a timer is a regular event at the
// right virtual time, ordered against message deliveries.
func TestNetworkAfter(t *testing.T) {
	e := sim.New()
	n := NewNetwork(e, afterGraph(t, 3), 3)
	var firedAt sim.Time
	n.After(0, 5, func() { firedAt = e.Now() })
	e.Run()
	if firedAt != sim.Seconds(5) {
		t.Errorf("timer fired at %v, want %v", firedAt, sim.Seconds(5))
	}
}

// TestChannelAfterFires: the callback runs on the dispatcher (serialized
// with handlers) after the scaled delay, and a Settle issued afterwards
// observes its effects.
func TestChannelAfterFires(t *testing.T) {
	ct := NewChannelTransport(afterGraph(t, 4), 4, ChannelConfig{LatencyScale: time.Millisecond})
	defer ct.Close()
	var fired atomic.Bool
	ct.After(0, 1, func() { fired.Store(true) }) // 1 virtual s -> 1ms real
	deadline := time.Now().Add(5 * time.Second)
	for !fired.Load() {
		if time.Now().After(deadline) {
			t.Fatal("timer never fired")
		}
		time.Sleep(time.Millisecond)
	}
	ct.Settle() // must not deadlock with the fired timer's accounting
}

// TestChannelSettleDoesNotWaitForPendingTimer: a timer far in the future
// must not stall Settle — timers are not in-flight messages.
func TestChannelSettleDoesNotWaitForPendingTimer(t *testing.T) {
	ct := NewChannelTransport(afterGraph(t, 5), 5, ChannelConfig{LatencyScale: time.Millisecond})
	defer ct.Close()
	ct.After(0, 60_000, func() {}) // one virtual minute -> 60s real: never fires in-test
	start := time.Now()
	ct.Settle()
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("Settle waited %v for a pending timer", el)
	}
}

// TestChannelSettleWaitsForZeroDelayTimers: a zero-delay timer is work
// due now, so Settle waits for it and for the zero-delay timers it arms in
// turn, as the event engine's run to quiescence does. The §4.3 election
// defers each member's adoption this way and is read right after Settle.
func TestChannelSettleWaitsForZeroDelayTimers(t *testing.T) {
	ct := NewChannelTransport(afterGraph(t, 5), 5, ChannelConfig{})
	defer ct.Close()
	const chain = 50
	var ran atomic.Int32
	var arm func()
	arm = func() {
		if ran.Add(1) < chain {
			ct.After(0, 0, arm)
		}
	}
	ct.After(0, 0, arm)
	ct.Settle()
	if got := ran.Load(); got != chain {
		t.Fatalf("Settle returned after %d of %d chained zero-delay timers", got, chain)
	}
}

// TestChannelAfterDroppedOnClose: a timer that fires after Close is
// discarded without panicking or resurrecting the dispatcher.
func TestChannelAfterDroppedOnClose(t *testing.T) {
	ct := NewChannelTransport(afterGraph(t, 6), 6, ChannelConfig{LatencyScale: time.Millisecond})
	var fired atomic.Bool
	ct.After(0, 20, func() { fired.Store(true) }) // ~20ms real
	ct.Close()
	time.Sleep(60 * time.Millisecond)
	if fired.Load() {
		t.Error("timer fired after Close")
	}
}

// TestChannelAfterZeroScale: LatencyScale 0 (deliver-ASAP mode) still maps
// timer delays onto real time, so a timeout fires after the messages it
// guards rather than instantly.
func TestChannelAfterZeroScale(t *testing.T) {
	ct := NewChannelTransport(afterGraph(t, 7), 7, ChannelConfig{})
	defer ct.Close()
	var seq, msgAt, timerAt atomic.Int32
	ct.SetHandler(1, func(*Message) { msgAt.Store(seq.Add(1)) })
	ct.After(0, 5, func() { timerAt.Store(seq.Add(1)) })
	ct.SendNew("ping", 0, 1, 0, nil)
	ct.Settle()
	deadline := time.Now().Add(5 * time.Second)
	for timerAt.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timer never fired under zero latency scale")
		}
		time.Sleep(time.Millisecond)
	}
	if msgAt.Load() != 1 || timerAt.Load() != 2 {
		t.Errorf("order: message %d, timer %d; want message first", msgAt.Load(), timerAt.Load())
	}
}
