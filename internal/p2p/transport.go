package p2p

import (
	"fmt"

	"p2psum/internal/liveness"
	"p2psum/internal/stats"
	"p2psum/internal/topology"
	"p2psum/internal/wire"
)

// Transport is the overlay substrate the protocol stack (internal/core,
// internal/routing) runs on: it moves messages between nodes, walks and
// floods the overlay, and meters every transmission. The protocol layers
// depend only on this interface, never on a concrete implementation.
//
// Three implementations ship with the package; they share one overlay core
// (overlay.go: topology, membership, partition gate, traffic books, flood
// and walk) and differ only in how a message moves:
//
//   - Network runs over the deterministic discrete-event engine of
//     internal/sim — the stand-in for the paper's SimJava setup (§6.2.1).
//     Runs are reproducible bit-for-bit given a seed.
//
//   - ChannelTransport runs concurrently on goroutines in real time, with
//     per-link latencies and optional packet loss. It expresses scenarios
//     the discrete-event engine cannot (wall-clock interleavings, lossy
//     links) at the price of determinism.
//
//   - TCPTransport hosts part of the overlay in this process and ships wire
//     frames to the processes hosting the rest over real sockets.
type Transport interface {
	// Len returns the number of overlay nodes.
	Len() int
	// Neighbors returns the online neighbors of a node, in ascending id
	// order (the graph's adjacency order is already deterministic).
	Neighbors(id NodeID) []NodeID
	// Degree returns the node's static overlay degree (online or not),
	// the selection criterion of the §4.1 selective walk and of the
	// degree-based summary-peer election.
	Degree(id NodeID) int
	// Graph exposes the static overlay topology (immutable once the
	// transport exists, so safe to read from any goroutine). Protocol code
	// asks it the questions that need no transport state: hop distances
	// (topology.Graph.Hops, the §4.1 closer-summary-peer comparison), the
	// nearest-seed partition behind dispatch-group wiring, and the static
	// neighbor list the liveness keepalive probes.
	Graph() *topology.Graph

	// Liveness exposes the transport's membership view — the single truth
	// behind Online/SetOnline. In-memory transports hold one ground-truth
	// view for the whole overlay; a TCP process's view is authoritative for
	// its local nodes and converges on the rest through the protocol
	// layer's liveness gossip. The view's observer (liveness.SetObserver)
	// is the transport-level liveness hook.
	Liveness() *liveness.View
	// Online reports whether the node is believed connected (liveness
	// state Alive; suspects count as offline).
	Online(id NodeID) bool
	// SetOnline flips a node's connectivity in the liveness view: up marks
	// it alive at the next incarnation, down marks it dead.
	SetOnline(id NodeID, up bool)
	// OnlineCount returns the number of connected nodes.
	OnlineCount() int
	// OnlineIDs returns the sorted ids of online nodes.
	OnlineIDs() []NodeID

	// SetHandler installs the message handler of a node.
	SetHandler(id NodeID, h Handler)
	// SetDrop installs the callback invoked whenever a message addressed
	// to an offline or handler-less node is discarded; protocols use it to
	// detect failures (§4.3).
	SetDrop(fn func(*Message))
	// SendNew builds a message and delivers it to its destination after
	// the link latency, counting it under typ. Messages to offline nodes
	// are counted as sent (the bytes hit the wire) but trigger the drop
	// callback instead.
	SendNew(typ string, from, to NodeID, ttl int, payload any)
	// Flood delivers a message of the given type from src to every node
	// within ttl hops using Gnutella-style constrained broadcast,
	// returning the nodes reached and counting every transmission.
	Flood(typ string, src NodeID, ttl int, payload any, visit func(NodeID)) map[NodeID]bool
	// SelectiveWalk performs the paper's find-protocol walk (§4.1, after
	// Adamic et al. [23]): highest-degree unvisited online neighbor first.
	SelectiveWalk(typ string, src NodeID, maxHops int, accept func(NodeID) bool) WalkResult
	// RandomWalk is the blind baseline: uniform random unvisited neighbor.
	RandomWalk(typ string, src NodeID, maxHops int, accept func(NodeID) bool) WalkResult

	// Counter exposes the per-type message counters — the unit of every
	// cost figure in the paper. Every call returns a merged snapshot of
	// the transport's ledgers; read it again for fresh totals.
	Counter() *stats.Counter
	// Bytes exposes the per-type traffic volume counters (same snapshot
	// contract as Counter; the ledger type states what a message costs).
	Bytes() *stats.Counter

	// Exec runs fn serialized with message handlers and returns when fn
	// has run. Protocol drivers wrap state mutations in it so they never
	// race with handler-side mutation: on the single-threaded event
	// engine it is a direct call; on the channel transport fn runs with
	// every dispatch group quiesced (on the dispatcher goroutine itself
	// in single-group mode, behind a barrier parking all dispatchers
	// otherwise). fn must not call Exec or Settle (it would deadlock the
	// dispatcher; the channel transport panics on the detectable cases).
	Exec(fn func())
	// After schedules fn to run once, delaySeconds of virtual time from
	// now, serialized with the message handlers of owner's dispatch group
	// like a delivery (on the channel transport virtual seconds are
	// scaled like link latencies and elapse in real time; on the event
	// engine the timer is a regular event, so Settle's run-to-quiescence
	// executes it as virtual time advances). owner names the node whose
	// protocol state fn mutates — timers must be serialized with that
	// node's handlers, and on a sharded-dispatch transport that means
	// running in its group. After itself may be called from any
	// serialized context (the driver, or a handler or timer of any node),
	// so one node's handler can arm work for another. Protocols use After
	// for loss-recovery timeouts (e.g. retransmitting a lost §4.2.2
	// reconciliation token).
	// On the channel transport a pending timer does not count as an
	// in-flight message — Settle does not wait for it — and Close cancels
	// timers that have not fired. fn must not call Exec or Settle.
	After(owner NodeID, delaySeconds float64, fn func())
	// Settle blocks until every in-flight message (and everything sent
	// while delivering it) has been handled. Protocol drivers call it to
	// reach quiescence before reading protocol state.
	Settle()

	// SetLinkFilter installs (or, with nil, removes) the partition hook:
	// a message whose directed link the filter reports severed is counted
	// as sent (the bytes hit the wire) but never delivered — it surfaces
	// through the drop callback exactly like a send to an offline node, so
	// protocols observe a partition as the §4.3 failure evidence it is.
	// Neighbors, walks and floods respect the filter too (a severed link
	// is not traversable). The fault-scenario engine (internal/scenario)
	// scripts partitions by swapping immutable filter closures in and out;
	// on a TCP deployment every process installs the same scripted filter,
	// so both sides of a cut degrade symmetrically without touching
	// sockets or iptables. Installation is atomic and safe at any time.
	SetLinkFilter(fn LinkFilter)
}

// LinkFilter reports whether the directed link from → to is currently
// severed. Implementations must be pure reads of immutable state (the
// hook runs on every delivery and neighbor scan, possibly from many
// goroutines); to change a partition, build a new closure and install it
// with SetLinkFilter.
type LinkFilter func(from, to NodeID) bool

// OriginScheduler is an After that also names the node whose serialized
// context the caller executes in. Every transport's After is safe from
// any context, so no protocol code probes for it.
//
// Deprecated: kept only because the bench module's tracing decorator
// (bench/trace.go) asserts it; Network.AfterFrom is its one
// implementation and goes with it.
type OriginScheduler interface {
	AfterFrom(origin, owner NodeID, delaySeconds float64, fn func())
}

// DispatchGrouper is the optional interface of transports that shard
// handler dispatch into concurrently running groups (ChannelTransport with
// ChannelConfig.Dispatchers > 1). Protocol wiring uses it to align dispatch
// groups with domains — internal/core maps every domain onto one group
// (via topology.NearestSeeds over Transport.Graph), so independent domains
// reconcile and answer queries in parallel while each domain's handlers
// stay serialized.
type DispatchGrouper interface {
	// DispatchGroups returns the number of dispatch groups (>= 1).
	DispatchGroups() int
	// SetGroupBy replaces the node -> group mapping (reduced modulo
	// DispatchGroups). It reports whether the mapping was applied: a
	// transport that has already carried traffic keeps its mapping and
	// returns false, which is safe — any mapping preserves per-node
	// serialization; the choice only affects parallelism.
	SetGroupBy(fn func(NodeID) int) bool
}

// Localizer is the optional interface of transports that host only a
// subset of the overlay in this process (TCPTransport). Driver-side
// protocol code consults it to act only for the nodes it owns — e.g.
// core.Construct broadcasts only from local summary peers, so two
// processes calling Construct concurrently each drive their own half of
// the domain. In-memory transports host every node and do not implement
// it.
type Localizer interface {
	// IsLocal reports whether the node's handlers run in this process.
	IsLocal(id NodeID) bool
}

// IsLocal reports whether the node is hosted in this process on the given
// transport: true for every node of an in-memory transport, the
// Localizer's answer otherwise.
func IsLocal(t Transport, id NodeID) bool {
	if l, ok := t.(Localizer); ok {
		return l.IsLocal(id)
	}
	return true
}

// Compile-time conformance of the implementations.
var (
	_ Transport       = (*Network)(nil)
	_ Transport       = (*ChannelTransport)(nil)
	_ Transport       = (*TCPTransport)(nil)
	_ DispatchGrouper = (*Network)(nil)
	_ DispatchGrouper = (*ChannelTransport)(nil)
	_ DispatchGrouper = (*TCPTransport)(nil)
	_ Localizer       = (*TCPTransport)(nil)
	_ OriginScheduler = (*Network)(nil)
)

// frameOf builds the frame header for msg.
func frameOf(msg *Message, hasPayload bool) wire.Frame {
	return wire.Frame{
		Type:       msg.Type,
		From:       int64(msg.From),
		To:         int64(msg.To),
		TTL:        msg.TTL,
		Hops:       msg.Hops,
		HasPayload: hasPayload,
	}
}

// encodeFrame serializes msg into a wire frame when its payload is
// serializable: messages without a payload frame directly, and payloads
// whose message type has a registered wire codec are encoded through it.
// It reports false for payloads the codec registry cannot serialize — the
// caller falls back to shared-memory delivery and Sizer accounting.
func encodeFrame(msg *Message) ([]byte, bool) {
	e := wire.GetEnc()
	defer e.Release()
	if !appendFrame(e, msg) {
		return nil, false
	}
	return append([]byte(nil), e.Bytes()...), true
}

// appendFrame appends msg's full frame encoding to e (codec payload
// included) with no intermediate buffer: the payload codec runs once
// against a pooled counting Enc to learn the length prefix, then once
// against e itself. It reports false — leaving e exactly as it was — when
// the payload has no registered codec or the codec fails.
func appendFrame(e *wire.Enc, msg *Message) bool {
	has := msg.Payload != nil
	var c wire.PayloadCodec
	payloadLen := 0
	if has {
		var ok bool
		c, ok = wire.Lookup(msg.Type)
		if !ok {
			return false
		}
		ce := wire.GetCountEnc()
		err := c.Encode(ce, msg.Payload)
		payloadLen = ce.Len()
		ce.Release()
		if err != nil {
			return false
		}
	}
	f := frameOf(msg, has)
	start := e.Len()
	f.AppendHeaderTo(e, payloadLen)
	if has {
		payloadStart := e.Len()
		if err := c.Encode(e, msg.Payload); err != nil {
			e.Truncate(start)
			return false
		}
		if e.Len()-payloadStart != payloadLen {
			// The codec is non-deterministic: the counted and written
			// lengths disagree, so the frame on the wire is corrupt. This
			// is a wiring bug in the codec, not a runtime condition.
			panic(fmt.Sprintf("p2p: codec for %q wrote %d bytes, counted %d",
				msg.Type, e.Len()-payloadStart, payloadLen))
		}
	}
	return true
}

// frameSize measures the encoded frame length of msg without building the
// bytes (pooled counting Enc all the way down, no allocation — tree payloads
// included: saintetiq.AppendWire walks the hierarchy without a scratch map
// or slice). It must agree exactly with len(encodeFrame(msg)) —
// TestByteAccounting pins that.
func frameSize(msg *Message) (int64, bool) {
	has := msg.Payload != nil
	payloadLen := 0
	if has {
		c, ok := wire.Lookup(msg.Type)
		if !ok {
			return 0, false
		}
		ce := wire.GetCountEnc()
		err := c.Encode(ce, msg.Payload)
		payloadLen = ce.Len()
		ce.Release()
		if err != nil {
			return 0, false
		}
	}
	f := frameOf(msg, has)
	return int64(f.SizeWithPayload(payloadLen)), true
}

// decodeFrame reconstructs a Message from a wire frame, decoding the
// payload through the registered codec. Frames without a payload need no
// codec.
func decodeFrame(b []byte) (*Message, error) {
	return decodeFrameWith(b, wire.DecodeFrame)
}

// decodeFrameShared is decodeFrame over a borrowed buffer: the frame-level
// payload blob aliases b instead of being copied, and the type string is
// interned through the registry. Safe because the payload codec consumes
// the blob before this function returns and must not retain it (the
// PayloadCodec contract) — so the caller may reuse b immediately.
func decodeFrameShared(b []byte) (*Message, error) {
	return decodeFrameWith(b, wire.DecodeFrameShared)
}

func decodeFrameWith(b []byte, parse func([]byte) (*wire.Frame, error)) (*Message, error) {
	f, err := parse(b)
	if err != nil {
		return nil, err
	}
	msg := &Message{
		Type: f.Type,
		From: NodeID(f.From),
		To:   NodeID(f.To),
		TTL:  f.TTL,
		Hops: f.Hops,
	}
	if f.HasPayload {
		c, ok := wire.Lookup(f.Type)
		if !ok {
			return nil, fmt.Errorf("p2p: no codec registered for message type %q", f.Type)
		}
		payload, err := c.Decode(f.Payload)
		if err != nil {
			return nil, fmt.Errorf("p2p: decode %q payload: %w", f.Type, err)
		}
		msg.Payload = payload
	}
	return msg, nil
}

// messageWireSize returns the byte size a transport charges for msg (the
// rule stated on ledger): the real encoded frame length when the payload is
// serializable, the Sizer estimate otherwise. The measurement runs the
// codec against a counting Enc — one allocation-free tree walk for
// data-level payloads; protocol-level payloads cost a few header bytes to
// count.
func messageWireSize(msg *Message) int64 {
	if size, ok := frameSize(msg); ok {
		return size
	}
	return sizerEstimate(msg)
}

// sizerEstimate is the accounted size of a message whose payload has no
// registered codec: BaseMessageBytes plus the payload's own Sizer estimate.
func sizerEstimate(msg *Message) int64 {
	size := BaseMessageBytes
	if s, ok := msg.Payload.(Sizer); ok {
		size += s.WireSize()
	}
	return int64(size)
}
