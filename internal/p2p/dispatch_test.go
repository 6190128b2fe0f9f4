package p2p

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2psum/internal/topology"
)

// Tests for the sharded dispatcher: per-group serialization, the Exec
// barrier, drop rerouting, timer routing and cancellation, and the
// Close drain across groups.

// starTransport builds a ChannelTransport over disjoint star clusters with
// one dispatch group per cluster (the domain-aligned layout core wires).
func starTransport(t testing.TB, clusters, size, dispatchers int, cfg ChannelConfig) *ChannelTransport {
	t.Helper()
	g, _ := topology.DisjointStars(clusters, size, 0.02)
	cfg.Dispatchers = dispatchers
	ct := NewChannelTransport(g, 1, cfg)
	t.Cleanup(ct.Close)
	if !ct.SetGroupBy(func(id NodeID) int { return int(id) / size }) {
		t.Fatal("pristine transport rejected SetGroupBy")
	}
	return ct
}

// TestGroupedDelivery: every message reaches its handler regardless of the
// group layout, and cross-group sends land in the destination's group.
func TestGroupedDelivery(t *testing.T) {
	for _, d := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("dispatchers=%d", d), func(t *testing.T) {
			ct := starTransport(t, 4, 8, d, ChannelConfig{})
			var got [32]atomic.Int32
			for i := 0; i < ct.Len(); i++ {
				id := NodeID(i)
				ct.SetHandler(id, func(msg *Message) { got[id].Add(1) })
			}
			// All-to-one per cluster plus cross-cluster traffic.
			for i := 1; i < ct.Len(); i++ {
				ct.SendNew("ping", NodeID(i), NodeID(i/8*8), 0, nil) // to own hub
				ct.SendNew("far", NodeID(i), NodeID((i+8)%32), 0, nil)
			}
			ct.Settle()
			var sum int32
			for i := 0; i < ct.Len(); i++ {
				sum += got[i].Load()
			}
			if int(sum) != 2*(ct.Len()-1) {
				t.Fatalf("delivered %d messages, want %d", sum, 2*(ct.Len()-1))
			}
			if ct.DispatchGroups() != d {
				t.Fatalf("DispatchGroups = %d, want %d", ct.DispatchGroups(), d)
			}
		})
	}
}

// TestPerNodeSerialization: a node's handler never runs reentrantly even
// under cross-group message storms — the per-group dispatcher is the
// serialization guarantee protocol state relies on.
func TestPerNodeSerialization(t *testing.T) {
	ct := starTransport(t, 4, 8, 4, ChannelConfig{})
	var active [32]atomic.Int32
	var violations atomic.Int32
	for i := 0; i < ct.Len(); i++ {
		id := NodeID(i)
		ct.SetHandler(id, func(msg *Message) {
			if active[id].Add(1) != 1 {
				violations.Add(1)
			}
			time.Sleep(10 * time.Microsecond) // widen the race window
			active[id].Add(-1)
		})
	}
	for round := 0; round < 20; round++ {
		for i := 0; i < ct.Len(); i++ {
			ct.SendNew("a", NodeID((i+1)%32), NodeID(i), 0, nil)
			ct.SendNew("b", NodeID((i+9)%32), NodeID(i), 0, nil)
		}
	}
	ct.Settle()
	if v := violations.Load(); v != 0 {
		t.Fatalf("handler ran reentrantly %d times", v)
	}
}

// TestExecBarrierQuiescesAllGroups: an Exec closure observes no running
// handler in any dispatch group, even while a storm is in flight.
func TestExecBarrierQuiescesAllGroups(t *testing.T) {
	ct := starTransport(t, 4, 8, 4, ChannelConfig{})
	var running atomic.Int32
	for i := 0; i < ct.Len(); i++ {
		ct.SetHandler(NodeID(i), func(msg *Message) {
			running.Add(1)
			time.Sleep(20 * time.Microsecond)
			running.Add(-1)
		})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < 50; round++ {
			for i := 0; i < ct.Len(); i++ {
				ct.SendNew("x", NodeID(i), NodeID((i+3)%32), 0, nil)
			}
		}
	}()
	for k := 0; k < 25; k++ {
		ct.Exec(func() {
			if r := running.Load(); r != 0 {
				t.Errorf("Exec closure ran with %d handlers active", r)
			}
		})
	}
	<-done
	ct.Settle()
}

// TestExecFromHandlerPanics is the regression test for the documented
// Exec-from-handler deadlock: the transport detects the misuse and panics
// with a diagnosable message instead of hanging the dispatcher forever.
func TestExecFromHandlerPanics(t *testing.T) {
	for _, d := range []int{1, 4} {
		t.Run(fmt.Sprintf("dispatchers=%d", d), func(t *testing.T) {
			ct := starTransport(t, 4, 8, d, ChannelConfig{})
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
			r, _ := recovered.Load().(string)
			if r == "" {
				t.Fatal("Exec from a handler did not panic")
			}
		})
	}
}

// TestSettleFromHandlerPanics: same protection for Settle, which can never
// reach quiescence while the calling handler is itself pending.
func TestSettleFromHandlerPanics(t *testing.T) {
	ct := starTransport(t, 2, 4, 2, ChannelConfig{})
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

// TestDropReroutedToSenderGroup: a message dropped at an offline receiver
// in another group runs the drop callback serialized with the *sender's*
// group — the callback mutates sender-side protocol state (§4.3 failure
// detection), so that is the serialization that matters.
func TestDropReroutedToSenderGroup(t *testing.T) {
	ct := starTransport(t, 2, 8, 2, ChannelConfig{})
	sender, receiver := NodeID(1), NodeID(9) // cluster 0 and cluster 1
	if a, b := ct.GroupOf(sender), ct.GroupOf(receiver); a == b {
		t.Fatalf("fixture broken: sender and receiver share group %d", a)
	}
	// The sender's group runs slow handlers; the drop callback must never
	// overlap them.
	var senderGroupActive atomic.Int32
	var overlap atomic.Int32
	for i := 0; i < 8; i++ { // cluster 0 nodes
		ct.SetHandler(NodeID(i), func(msg *Message) {
			senderGroupActive.Add(1)
			time.Sleep(20 * time.Microsecond)
			senderGroupActive.Add(-1)
		})
	}
	var dropped atomic.Int32
	ct.SetDrop(func(msg *Message) {
		if senderGroupActive.Load() != 0 {
			overlap.Add(1)
		}
		dropped.Add(1)
	})
	ct.SetOnline(receiver, false)
	for round := 0; round < 30; round++ {
		for i := 0; i < 8; i++ {
			ct.SendNew("busy", NodeID((i+1)%8), NodeID(i), 0, nil)
		}
		ct.SendNew("lost", sender, receiver, 0, nil)
	}
	ct.Settle()
	if got := dropped.Load(); got != 30 {
		t.Fatalf("drop callback ran %d times, want 30", got)
	}
	if o := overlap.Load(); o != 0 {
		t.Fatalf("drop callback overlapped sender-group handlers %d times", o)
	}
}

// TestAfterRunsInOwnersGroup: a timer callback is serialized with the
// owning node's group while other groups keep running — arming a timer in
// group 0 must not observe group-0 handlers mid-flight.
func TestAfterRunsInOwnersGroup(t *testing.T) {
	ct := starTransport(t, 2, 8, 2, ChannelConfig{})
	var group0Active atomic.Int32
	var overlap, fired atomic.Int32
	for i := 0; i < 8; i++ {
		ct.SetHandler(NodeID(i), func(msg *Message) {
			group0Active.Add(1)
			time.Sleep(20 * time.Microsecond)
			group0Active.Add(-1)
		})
	}
	for k := 0; k < 20; k++ {
		ct.After(NodeID(1), float64(k)*0.2, func() {
			if group0Active.Load() != 0 {
				overlap.Add(1)
			}
			fired.Add(1)
		})
	}
	for round := 0; round < 40; round++ {
		for i := 0; i < 8; i++ {
			ct.SendNew("busy", NodeID((i+1)%8), NodeID(i), 0, nil)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for fired.Load() < 20 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/20 timers fired", fired.Load())
		}
		time.Sleep(time.Millisecond)
	}
	ct.Settle()
	if o := overlap.Load(); o != 0 {
		t.Fatalf("timer callbacks overlapped owner-group handlers %d times", o)
	}
}

// TestCloseCancelsTimersAcrossGroups covers After cancellation ordering on
// the sharded dispatcher: timers armed for owners in several groups —
// including a group that never carried a message and is entirely idle —
// are stopped by Close before the inboxes shut, so none fire afterwards
// and none linger in the runtime.
func TestCloseCancelsTimersAcrossGroups(t *testing.T) {
	g, _ := topology.DisjointStars(4, 8, 0.02)
	ct := NewChannelTransport(g, 1, ChannelConfig{Dispatchers: 4})
	ct.SetGroupBy(func(id NodeID) int { return int(id) / 8 })
	var fired atomic.Int32
	var delivered atomic.Int32
	ct.SetHandler(1, func(msg *Message) { delivered.Add(1) })
	// Traffic only in group 0; groups 1..3 stay idle but arm timers.
	for i := 0; i < 4; i++ {
		ct.After(NodeID(i*8+2), 30, func() { fired.Add(1) }) // ~30ms real
	}
	for k := 0; k < 10; k++ {
		ct.SendNew("x", 0, 1, 0, nil)
	}
	start := time.Now()
	ct.Close()
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("Close took %v with idle groups holding armed timers", el)
	}
	if got := delivered.Load(); got != 10 {
		t.Fatalf("Close drained %d/10 in-flight messages", got)
	}
	time.Sleep(80 * time.Millisecond) // past every timer's deadline
	if f := fired.Load(); f != 0 {
		t.Fatalf("%d timers fired after Close", f)
	}
	ct.Close() // idempotent
}

// TestSetGroupByFrozenAfterTraffic: the mapping is only mutable while the
// transport is pristine; once a message has been sent the old mapping
// stays (any mapping is valid — this protects in-flight serialization).
func TestSetGroupByFrozenAfterTraffic(t *testing.T) {
	ct := starTransport(t, 2, 4, 2, ChannelConfig{})
	if !ct.SetGroupBy(func(id NodeID) int { return 0 }) {
		t.Fatal("pristine transport rejected SetGroupBy")
	}
	if g := ct.GroupOf(5); g != 0 {
		t.Fatalf("GroupOf(5) = %d after remap to group 0", g)
	}
	ct.SetHandler(1, func(msg *Message) {})
	ct.SendNew("x", 0, 1, 0, nil)
	ct.Settle()
	if ct.SetGroupBy(func(id NodeID) int { return 1 }) {
		t.Fatal("SetGroupBy applied after traffic had flowed")
	}
	if g := ct.GroupOf(5); g != 0 {
		t.Fatalf("mapping changed after rejected SetGroupBy: GroupOf(5) = %d", g)
	}
}

// TestGroupedSettleWaitsForRelays: relayed sends that hop between groups
// are all drained before Settle returns.
func TestGroupedSettleWaitsForRelays(t *testing.T) {
	ct := starTransport(t, 4, 4, 4, ChannelConfig{})
	var mu sync.Mutex
	reached := 0
	// 0 -> 5 -> 10 -> 15 across four groups.
	ct.SetHandler(5, func(msg *Message) { ct.SendNew("relay", 5, 10, 0, nil) })
	ct.SetHandler(10, func(msg *Message) { ct.SendNew("relay", 10, 15, 0, nil) })
	ct.SetHandler(15, func(msg *Message) { mu.Lock(); reached++; mu.Unlock() })
	ct.SendNew("start", 0, 5, 0, nil)
	ct.Settle()
	mu.Lock()
	defer mu.Unlock()
	if reached != 1 {
		t.Fatalf("cross-group relay chain incomplete before Settle returned (reached=%d)", reached)
	}
}
