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
// partition gate and traffic books are written once — and the two
// goroutine-backed ones share one dispatch engine (engine.go).
//
// # Which lock protects what
//
//	ledger.mu                  one mutex per ledger (overlay.go) — the
//	                           Network's single ledger, one per dispatch
//	                           group of a ChannelTransport or
//	                           TCPTransport: that lane's per-type slots
//	                           (types[i] with its msgs[i] and bytes[i]),
//	                           opened in whatever order the lane meets
//	                           the types. Lanes never contend on shared
//	                           accounting; Counter/Bytes merge the slots
//	                           by type into fresh counters on read.
//	dispatchEngine             (engine.go, shared by ChannelTransport and
//	                           TCPTransport) mu: groupOf[], armed timers,
//	                           dispatcher goroutine ids, closed. hmu: the
//	                           handler table and the drop callback, held
//	                           only to read or set them, never across a
//	                           call. execMu: serializes concurrent Exec
//	                           barriers so two drivers cannot interleave
//	                           group parking. dispatchGroup.mu/cond, one
//	                           per group: the group's pending-work count;
//	                           Settle/Close verify quiescence under mu and
//	                           all group locks at once.
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
//	ChannelTransport.mu        the loss/random-walk rng.
//	TCPTransport               connMu (connection table + reconnect loops),
//	                           wireMu (socket frame counters and the
//	                           sent/handled tallies of the distributed
//	                           settle), statusMu/barrierMu (the settle and
//	                           barrier exchanges).
//	tcpConn.qmu                one connection's coalescing batch: senders
//	                           append units under it, the writer swaps the
//	                           batch out under it; NEVER held across the
//	                           socket write (appending never blocks on
//	                           I/O). qcond wakes the writer.
//	tcpConn flow counters      per-direction flowRate meters (each its own
//	                           small mutex: window fold + lifetime total)
//	                           plus atomics for unit/flush counts,
//	                           last-receive time and keepalive RTT — read
//	                           by PeerStats without touching qmu or the
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

// Sizer is implemented by payloads that can estimate their wire size. The
// estimate is only charged for payloads without a registered wire codec
// (see ledger for the accounting rule).
type Sizer interface {
	WireSize() int
}

// BaseMessageBytes is the accounted size of a payload-less protocol
// message (headers, ids, freshness values).
const BaseMessageBytes = 64

// Network couples a topology with the event engine and tracks the message
// traffic per type — the unit of every cost figure in the paper ("the cost
// of query routing, which is measured in term of the number of exchanged
// messages"). It is the deterministic, sim-backed Transport: every
// event runs on one sim.Engine, so handlers, timers and drop callbacks
// are serialized by construction.
type Network struct {
	overlay
	books   // one ledger
	engine  *sim.Engine
	rng     *rand.Rand
	handler []Handler
	// nextMsg counts sends; a message without an id takes the count.
	nextMsg uint64
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
	// DirectLatency is used for node pairs without an overlay edge (e.g. a
	// query sent straight to a relevant peer found in a summary).
	DirectLatency float64
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
		overlay:       overlay{graph: graph, view: liveness.NewView(graph.Len(), nil)},
		books:         make(books, 1),
		engine:        engine,
		rng:           rand.New(rand.NewSource(seed)),
		handler:       make([]Handler, graph.Len()),
		sizer:         wire.NewCountEnc(),
		DirectLatency: 0.100,
	}
	engine.SetDeliver(n.deliver)
	return n
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
	dist := n.graph.BFSWithin(int(src), radius)
	out := make(map[NodeID]int, len(dist))
	for v, d := range dist {
		out[NodeID(v)] = d
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
// trigger Drop instead of a handler.
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
	l := &n.books[0]
	l.mu.Lock()
	i := l.slot(msg.Type)
	l.msgs[i]++
	l.bytes[i] += n.wireSize(msg, i)
	l.mu.Unlock()
	idx := n.take()
	n.slab[idx] = *msg
	lat := n.latencyBetween(msg.From, msg.To, n.DirectLatency)
	n.engine.AfterDeliver(sim.Seconds(lat), idx)
}

// wireSize is messageWireSize through the network's own codec cache and
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
		var ok bool
		if c, ok = wire.Lookup(msg.Type); !ok {
			return sizerEstimate(msg)
		}
		n.codecs[slot] = c
	}
	if size, ok := countFrame(msg, c, n.sizer); ok {
		return size
	}
	return sizerEstimate(msg)
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

// Flood delivers a message of the given type from src to every node within
// ttl hops using Gnutella-style constrained broadcast. It returns the nodes
// reached and counts every transmission (§6.2.3).
func (n *Network) Flood(typ string, src NodeID, ttl int, payload any, visit func(NodeID)) map[NodeID]bool {
	return n.flood(n.books[0].chargeHops, typ, src, ttl, visit)
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

// SelectiveWalk performs the paper's find protocol walk (§4.1, after [23]):
// starting at src, repeatedly move to the highest-degree unvisited online
// neighbor until accept returns true or maxHops is exhausted. Ties break on
// the lower node id; dead ends backtrack.
func (n *Network) SelectiveWalk(typ string, src NodeID, maxHops int, accept func(NodeID) bool) WalkResult {
	return n.walk(n.books[0].chargeHops, typ, src, maxHops, accept, n.selective)
}

// RandomWalk is the blind baseline: uniform random unvisited neighbor.
func (n *Network) RandomWalk(typ string, src NodeID, maxHops int, accept func(NodeID) bool) WalkResult {
	return n.walk(n.books[0].chargeHops, typ, src, maxHops, accept, func(cands []NodeID) NodeID {
		return cands[n.rng.Intn(len(cands))]
	})
}
