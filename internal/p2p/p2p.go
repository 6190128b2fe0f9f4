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
//	ledger.mu                  one mutex per ledger (overlay.go) — one
//	                           ledger per region of a Network, per
//	                           dispatch group of a ChannelTransport or
//	                           TCPTransport: that lane's message and byte
//	                           counters. Lanes never contend on shared
//	                           accounting; Counter/Bytes merge the ledgers
//	                           into a fresh snapshot on read.
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
//	Network                    NO locks of its own beyond its ledgers (the
//	                           event kernel runs handlers on one goroutine
//	                           per region); message ids are per-region
//	                           atomics. Its liveness view locks itself.
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
	"sync/atomic"

	"p2psum/internal/liveness"
	"p2psum/internal/sim"
	"p2psum/internal/topology"
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
// messages"). It is the deterministic, sim-backed Transport.
//
// Events run either on one sequential engine (NewNetwork) or on a
// region-sharded kernel (NewShardedNetwork, see region.go); exactly one of
// engine and shard is non-nil. Traffic is charged to one ledger per region
// — the sequential Network is the one-region case.
type Network struct {
	overlay
	books
	engine  *sim.Engine
	shard   *sim.Sharded
	rng     *rand.Rand
	handler []Handler
	// nextMsg counts sends per region; message ids are striped over the
	// regions, so they are unique without global state.
	nextMsg []atomic.Uint64
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
func NewNetwork(engine *sim.Engine, graph *topology.Graph, seed int64) *Network {
	n := newNetwork(graph, seed, 1)
	n.engine = engine
	return n
}

// newNetwork builds the kernel-independent part of a Network with the
// given region count.
func newNetwork(graph *topology.Graph, seed int64, regions int) *Network {
	return &Network{
		overlay:       overlay{graph: graph, view: liveness.NewView(graph.Len(), nil)},
		books:         newBooks(regions),
		rng:           rand.New(rand.NewSource(seed)),
		handler:       make([]Handler, graph.Len()),
		nextMsg:       make([]atomic.Uint64, regions),
		DirectLatency: 0.100,
	}
}

// SetHandler installs the message handler of a node.
func (n *Network) SetHandler(id NodeID, h Handler) { n.handler[id] = h }

// SetDrop installs the drop callback (§4.3 failure detection).
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

// Exec runs fn immediately: the event kernel only executes between
// Settle windows on the driver goroutine, so driver code is always
// serialized with handlers (in sharded mode the region workers are
// quiescent whenever the driver runs).
func (n *Network) Exec(fn func()) { fn() }

// After schedules fn delaySeconds of virtual time from now. In
// sequential mode the engine is single-threaded, so fn is serialized
// with handlers regardless of which node owns the timer; in sharded
// mode the timer runs in the owner's region, at that region's clock.
func (n *Network) After(owner NodeID, delaySeconds float64, fn func()) {
	n.AfterFrom(owner, owner, delaySeconds, fn)
}

// AfterFrom schedules fn in owner's region from code executing in
// origin's region (OriginScheduler). In sharded mode a cross-region
// timer is staged at the next window barrier like a cross-region
// message, stamped with the origin region's clock; same-region (and
// sequential mode) matches After.
func (n *Network) AfterFrom(origin, owner NodeID, delaySeconds float64, fn func()) {
	if n.shard == nil {
		n.engine.After(sim.Seconds(delaySeconds), fn)
		return
	}
	at := n.shard.RegionNow(n.regionOf(origin)) + sim.Seconds(delaySeconds)
	n.shard.Schedule(int(origin), int(owner), at, fn)
}

// Settle runs the event kernel to quiescence, delivering every in-flight
// message and everything sent while handling it.
func (n *Network) Settle() {
	if n.shard != nil {
		n.shard.Run()
		return
	}
	n.engine.Run()
}

// regionOf returns the region — and so the ledger — of a node (0 on the
// sequential Network).
func (n *Network) regionOf(id NodeID) int {
	if n.shard == nil {
		return 0
	}
	return n.shard.RegionOf(int(id))
}

// chargeFrom returns the walk/flood charge of a traversal originating at
// src: its hops go to the origin's region ledger.
func (n *Network) chargeFrom(src NodeID) func(typ string, k int64) {
	return n.books[n.regionOf(src)].chargeHops
}

// Send schedules delivery of msg from msg.From to msg.To after the link
// latency, charging it to the sender's region ledger under msg.Type.
// Messages to offline or handler-less nodes are counted as sent (the bytes
// hit the wire) but trigger Drop instead of a handler. On the sharded
// kernel the delivery goes directly onto the destination region's heap
// when sender and receiver share a region, and is staged at the next
// window barrier otherwise.
func (n *Network) Send(msg *Message) {
	if msg.To < 0 || int(msg.To) >= n.graph.Len() {
		panic(fmt.Sprintf("p2p: send to out-of-range node %d", msg.To))
	}
	src := n.regionOf(msg.From)
	if seq := n.nextMsg[src].Add(1); msg.ID == 0 {
		msg.ID = seq*uint64(len(n.books)) + uint64(src)
	}
	n.books[src].charge(msg.Type, 1, messageWireSize(msg))
	lat := n.latencyBetween(msg.From, msg.To, n.DirectLatency)
	n.AfterFrom(msg.From, msg.To, lat, func() { n.deliver(msg) })
}

// deliver hands msg to its destination handler, or to the drop callback
// when the node is offline or handler-less — or when the link filter
// severs the link at delivery time.
func (n *Network) deliver(msg *Message) {
	if h := n.handler[msg.To]; h != nil && n.deliverable(msg.From, msg.To) {
		h(msg)
	} else if n.drop != nil {
		n.drop(msg)
	}
}

// SendNew builds and sends a message.
func (n *Network) SendNew(typ string, from, to NodeID, ttl int, payload any) {
	n.Send(&Message{Type: typ, From: from, To: to, TTL: ttl, Payload: payload})
}

// Flood delivers a message of the given type from src to every node within
// ttl hops using Gnutella-style constrained broadcast. It returns the nodes
// reached and counts every transmission (§6.2.3).
func (n *Network) Flood(typ string, src NodeID, ttl int, payload any, visit func(NodeID)) map[NodeID]bool {
	return n.flood(n.chargeFrom(src), typ, src, ttl, visit)
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
	return n.walk(n.chargeFrom(src), typ, src, maxHops, accept, n.selective)
}

// RandomWalk is the blind baseline: uniform random unvisited neighbor.
// The choice draws from the network-wide rng, so in sharded mode it is
// driver-context only (walks from concurrent region workers would race
// on the source).
func (n *Network) RandomWalk(typ string, src NodeID, maxHops int, accept func(NodeID) bool) WalkResult {
	return n.walk(n.chargeFrom(src), typ, src, maxHops, accept, func(cands []NodeID) NodeID {
		return cands[n.rng.Intn(len(cands))]
	})
}
