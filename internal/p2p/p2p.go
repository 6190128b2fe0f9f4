// Package p2p is the unstructured overlay substrate: message transport
// behind the Transport interface, with online/offline state, TTL-bounded
// flooding and the selective walk of Adamic et al. [23] that the paper's
// find protocol uses (§4.1).
//
// The package deliberately knows nothing about summaries: protocol logic
// lives in internal/core (summary management) and internal/routing (query
// routing); p2p only moves messages and counts them. Protocol layers
// depend on the Transport interface; the three concrete transports are
// Network (deterministic, discrete-event), ChannelTransport (concurrent,
// real-time) and TCPTransport (real sockets between OS processes). All
// three embed one overlay core (overlay.go) — topology, membership,
// partition gate, traffic books, flood and walk are written once — and
// the two goroutine-backed ones share one dispatch engine (engine.go).
//
// # Which lock protects what
//
//	ledger.mu                  the transport's one ledger (overlay.go):
//	                           its per-type slots (types[i] with its
//	                           msgs[i] and bytes[i]), opened in whatever
//	                           order the transport meets the types.
//	                           Counter/Bytes copy the slots into fresh
//	                           counters under it.
//	dispatchEngine             (engine.go, shared by ChannelTransport and
//	                           TCPTransport) mu: the pending-work count
//	                           (with the idle cond Settle and Close wait
//	                           on), armed timers, closed. hmu: the handler
//	                           table and the drop callback, held only to
//	                           read or set them, never across a call.
//	linkGate                   NO lock: the installed LinkFilter is one
//	                           atomic pointer to an immutable closure.
//	Network                    NO locks of its own beyond its ledger (the
//	                           event engine runs every handler on one
//	                           goroutine). It owns the slab of in-flight
//	                           Message values and its free list, the
//	                           per-slot codec cache and the one counting
//	                           Enc every send is sized with — plain
//	                           fields, touched only on that goroutine, as
//	                           is the message-id counter. Its ledger's
//	                           mutex is held across sizing a send. Its
//	                           liveness view locks itself.
//	TCPTransport               connMu (connection table + reconnect loops),
//	                           wireMu (socket frame counters),
//	                           statusMu/barrierMu (the settle and barrier
//	                           exchanges).
//	tcpConn.qmu                one connection's coalescing batch: senders
//	                           append units under it, the writer swaps the
//	                           batch out under it; NEVER held across the
//	                           socket write (appending never blocks on
//	                           I/O). qcond wakes the writer.
//	tcpConn flow counters      per-direction flowRate meters (each its own
//	                           small mutex: window fold + lifetime total)
//	                           plus atomics for unit/flush counts,
//	                           last-receive time, keepalive RTT and the
//	                           data frames sent, handled and reported
//	                           handled on the connection (the distributed
//	                           settle's counters) — read by PeerStats and
//	                           Settle without touching qmu or the
//	                           transport locks, cheap enough for a signal
//	                           handler.
package p2p

import (
	"fmt"
	"math/rand"

	"p2psum/internal/liveness"
	"p2psum/internal/sim"
	"p2psum/internal/topology"
	"p2psum/internal/wire"
)

// NodeID identifies an overlay node (index into the topology graph).
type NodeID int

// Message is one overlay message. Payloads are protocol-defined.
type Message struct {
	ID      uint64
	Type    string
	From    NodeID
	To      NodeID
	TTL     int
	Hops    int
	Payload any
}

// Handler consumes messages delivered to a node.
//
// The *Message is valid only for the duration of the call: a transport may
// recycle it as soon as the handler returns (the Network delivers out of a
// slab slot it then clears). A handler that needs a field later copies
// it, or the Message value, before returning; the payload itself belongs
// to whoever the protocol says holds it. The same contract holds for the
// drop callback (SetDrop). Under the race detector the Network poisons a
// released slot (To -1, Type "<released>") so a retained pointer reads
// garbage loudly.
type Handler func(msg *Message)

// BaseMessageBytes is the accounted size of one walk or flood
// transmission (headers, ids), which no transport frames.
const BaseMessageBytes = 64

// Network couples a topology with the event engine and tracks the message
// traffic per type — the unit of every cost figure in the paper ("the cost
// of query routing, which is measured in term of the number of exchanged
// messages"). It is the deterministic, sim-backed Transport: every
// event runs on one sim.Engine, so handlers, timers and drop callbacks
// are serialized by construction.
type Network struct {
	overlay
	ledger
	engine  *sim.Engine
	rng     *rand.Rand
	handler []Handler
	// nextMsg counts sends; a message without an id takes the count.
	nextMsg uint64
	// seed and loss decide packet loss (see SetLossRate): a send is lost
	// by a hash of seed and its ordinal, so loss draws nothing from rng.
	seed uint64
	loss float64
	// slab holds every in-flight message by value; a delivery event names
	// its slot. free lists the slots to reuse. A slot is taken by Send and
	// released after its handler (or drop callback) returns.
	slab []Message
	free []int
	// codecs caches the wire codec of the ledger's type slot i at index i
	// (the zero codec until a lookup hits). sizer is the one counting
	// encoder every send is sized with; the engine is single-threaded, so
	// one suffices.
	codecs []wire.PayloadCodec
	sizer  *wire.Enc
	// drop is invoked (if set via SetDrop) whenever a message addressed
	// to an offline node is discarded; protocols use it to detect
	// failures (§4.3: "a partner who has tried to send push or query
	// messages to SP will detect its departure").
	drop func(msg *Message)
}

// NewNetwork builds a network over the graph. All nodes start online.
// The network installs itself as the engine's delivery hook, so an engine
// carries one Network.
func NewNetwork(engine *sim.Engine, graph *topology.Graph, seed int64) *Network {
	n := &Network{
		overlay: overlay{graph: graph, view: liveness.NewView(graph.Len(), nil)},
		engine:  engine,
		rng:     rand.New(rand.NewSource(seed)),
		seed:    uint64(seed),
		handler: make([]Handler, graph.Len()),
		sizer:   wire.NewCountEnc(),
	}
	n.hops = n.chargeHops
	engine.SetDeliver(n.deliver)
	return n
}

// SetLossRate makes every later unicast lost with probability p in [0,1]:
// a lost message is charged to the ledger as sent (the bytes hit the wire)
// but never delivered, and the drop callback does not fire — packet loss,
// unlike the offline-receiver drops protocols detect via SetDrop. Whether
// a send is lost is a pure function of the NewNetwork seed and the send's
// ordinal, so a seed reproduces the losses and RandomWalk streams do not
// move. Walk and flood hops are never lost. Call it before traffic.
func (n *Network) SetLossRate(p float64) { n.loss = p }

// lost reports whether the send with the given ordinal is lost: a
// splitmix64 finalizer over seed^ordinal, its top 53 bits scaled to [0,1).
func (n *Network) lost(ordinal uint64) bool {
	x := n.seed ^ ordinal
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < n.loss
}

// SetHandler installs the message handler of a node.
func (n *Network) SetHandler(id NodeID, h Handler) { n.handler[id] = h }

// SetDrop installs the drop callback (§4.3 failure detection). Like a
// handler's, the callback's *Message is valid only during the call.
func (n *Network) SetDrop(fn func(*Message)) { n.drop = fn }

// HopsWithin returns BFS hop distances from src, bounded by radius.
//
// Deprecated: no longer part of Transport and unused by the protocol
// stack, which asks Graph().Hops for the one distance it needs. Kept only
// because the bench module's tracing decorator still names it; it goes
// with that decorator's HopsWithin span.
func (n *Network) HopsWithin(src NodeID, radius int) map[NodeID]int {
	out := make(map[NodeID]int)
	for v := 0; v < n.graph.Len(); v++ {
		if d := n.graph.Hops(int(src), v, radius); d <= radius {
			out[NodeID(v)] = d
		}
	}
	return out
}

// Exec runs fn immediately: the event engine runs only when the driver
// calls Settle or drives the engine itself, so driver code is always
// serialized with handlers.
func (n *Network) Exec(fn func()) { fn() }

// After schedules fn delaySeconds of virtual time from now. The engine
// is single-threaded, so fn is serialized with handlers regardless of
// which node owns the timer.
func (n *Network) After(owner NodeID, delaySeconds float64, fn func()) {
	n.engine.After(sim.Seconds(delaySeconds), fn)
}

// AfterFrom is After; origin is ignored.
//
// Deprecated: nothing in this module calls it. It is kept only because
// the bench module's tracing decorator (bench/trace.go) forwards
// OriginScheduler; it goes when that decorator drops the forward.
func (n *Network) AfterFrom(origin, owner NodeID, delaySeconds float64, fn func()) {
	n.After(owner, delaySeconds, fn)
}

// DispatchGroups returns 1: the Network has one serialized lane.
//
// Deprecated: the protocol stack gains nothing from probing a Network
// for dispatch groups. It is kept only because the bench module's
// tracing decorator (bench/trace.go) forwards DispatchGrouper.
func (n *Network) DispatchGroups() int { return 1 }

// SetGroupBy ignores fn and returns false: there are no groups to map.
//
// Deprecated: kept only as a compile seam for the bench module's tracing
// decorator (bench/trace.go), like DispatchGroups.
func (n *Network) SetGroupBy(fn func(NodeID) int) bool { return false }

// Settle runs the event engine to quiescence, delivering every in-flight
// message and everything sent while handling it.
func (n *Network) Settle() { n.engine.Run() }

// Send schedules delivery of msg from msg.From to msg.To after the link
// latency, charging it under msg.Type. Messages to offline or
// handler-less nodes are counted as sent (the bytes hit the wire) but
// trigger Drop instead of a handler; lost ones (SetLossRate) are counted
// and go nowhere.
//
// Send copies *msg (after giving it an id when it has none) into a slab
// slot and keeps no reference to msg: changing msg afterwards changes
// nothing in flight.
func (n *Network) Send(msg *Message) {
	if msg.To < 0 || int(msg.To) >= n.graph.Len() {
		panic(fmt.Sprintf("p2p: send to out-of-range node %d", msg.To))
	}
	if n.nextMsg++; msg.ID == 0 {
		msg.ID = n.nextMsg
	}
	n.charge(msg)
	if n.loss > 0 && n.lost(n.nextMsg) {
		return
	}
	idx := n.take()
	n.slab[idx] = *msg
	lat := n.latencyBetween(msg.From, msg.To)
	n.engine.AfterDeliver(sim.Seconds(lat), idx)
}

// charge books msg on the Network's one ledger. The frame is sized before
// the count moves and the lock is released by defer, so a send that
// panics on an unframeable payload (see frameSize) charges nothing and
// leaves the ledger usable.
func (n *Network) charge(msg *Message) {
	l := &n.ledger
	l.mu.Lock()
	defer l.mu.Unlock()
	i := l.slot(msg.Type)
	size := n.wireSize(msg, i)
	l.msgs[i]++
	l.bytes[i] += size
}

// wireSize is frameSize through the network's own codec cache and
// counting encoder; slot is msg.Type's ledger slot.
func (n *Network) wireSize(msg *Message, slot int) int64 {
	if msg.Payload == nil {
		return headerSize(msg)
	}
	if slot >= len(n.codecs) {
		n.codecs = append(n.codecs, make([]wire.PayloadCodec, slot+1-len(n.codecs))...)
	}
	c := n.codecs[slot]
	if c.Encode == nil {
		c = codecOf(msg)
		n.codecs[slot] = c
	}
	return countFrame(msg, c, n.sizer)
}

// take returns a free slab slot, growing the slab when none is free.
func (n *Network) take() int {
	if k := len(n.free); k > 0 {
		idx := n.free[k-1]
		n.free = n.free[:k-1]
		return idx
	}
	n.slab = append(n.slab, Message{})
	return len(n.slab) - 1
}

// deliver is the engine's delivery hook: it hands slot idx's message to
// its destination handler, or to the drop callback when the node is
// offline or handler-less — or when the link filter severs the link at
// delivery time — then clears the slot and frees it. Handlers may send,
// growing the slab under msg; msg stays readable (it points into the old
// array) and the release goes by index.
func (n *Network) deliver(idx int) {
	msg := &n.slab[idx]
	if h := n.handler[msg.To]; h != nil && n.deliverable(msg.From, msg.To) {
		h(msg)
	} else if n.drop != nil {
		n.drop(msg)
	}
	n.slab[idx] = releasedMessage
	n.free = append(n.free, idx)
}

// SendNew builds and sends a message. The Message lives on the stack: Send
// copies it into the slab.
func (n *Network) SendNew(typ string, from, to NodeID, ttl int, payload any) {
	msg := Message{Type: typ, From: from, To: to, TTL: ttl, Payload: payload}
	n.Send(&msg)
}

// WalkResult is the outcome of a walk.
type WalkResult struct {
	// Found is the node that satisfied the predicate, or -1.
	Found NodeID
	// Path is the sequence of visited nodes, starting at the origin.
	Path []NodeID
	// Messages is the number of transmissions the walk used.
	Messages int
}

// RandomWalk is the blind baseline: uniform random unvisited neighbor.
func (n *Network) RandomWalk(typ string, src NodeID, maxHops int, accept func(NodeID) bool) WalkResult {
	return n.walk(typ, src, maxHops, accept, func(cands []NodeID) NodeID {
		return cands[n.rng.Intn(len(cands))]
	})
}
