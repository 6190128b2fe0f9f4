package p2p

import (
	"sync"
	"sync/atomic"

	"p2psum/internal/liveness"
	"p2psum/internal/stats"
	"p2psum/internal/topology"
)

// This file is the overlay core every transport embeds: the membership and
// topology block (overlay), the traffic books (ledger, books) and the two
// traversals that need nothing but those (flood, walk). Topology,
// membership and traffic accounting are overlay-management functions, not
// message transport, so they are written once here; Network,
// ChannelTransport and TCPTransport add only how a message moves.

// overlay is the static topology, the liveness view and the partition gate
// of one transport. Its exported methods are promoted into all three
// transports and are ten of the Transport interface's methods; none of
// them depends on how messages are carried.
type overlay struct {
	graph *topology.Graph
	view  *liveness.View
	gate  linkGate
}

// Len returns the number of overlay nodes.
func (o *overlay) Len() int { return o.graph.Len() }

// Graph exposes the static overlay topology (shared, immutable).
func (o *overlay) Graph() *topology.Graph { return o.graph }

// Degree returns the node's static overlay degree (online or not).
func (o *overlay) Degree(id NodeID) int { return o.graph.Degree(int(id)) }

// Liveness returns the transport's membership view: the ground truth of the
// whole overlay on the in-memory transports; on a TCP process authoritative
// for the local nodes and convergent on the remote ones through the
// protocol layer's liveness gossip (remote nodes default to alive until
// evidence arrives).
func (o *overlay) Liveness() *liveness.View { return o.view }

// Online reports whether the view believes the node connected.
func (o *overlay) Online(id NodeID) bool { return o.view.Online(int(id)) }

// SetOnline flips a node's connectivity in the liveness view.
func (o *overlay) SetOnline(id NodeID, up bool) {
	if up {
		o.view.MarkAlive(int(id))
	} else {
		o.view.MarkDead(int(id))
	}
}

// OnlineCount returns the number of nodes online in the view.
func (o *overlay) OnlineCount() int { return o.view.OnlineCount() }

// OnlineIDs returns the sorted ids of the nodes online in the view.
func (o *overlay) OnlineIDs() []NodeID {
	ids := o.view.OnlineIDs()
	out := make([]NodeID, len(ids))
	for i, id := range ids {
		out[i] = NodeID(id)
	}
	return out
}

// Neighbors returns the online neighbors of a node, in ascending id order
// (the graph's adjacency order is already deterministic). Links severed by
// the installed LinkFilter are not traversable.
func (o *overlay) Neighbors(id NodeID) []NodeID {
	var out []NodeID
	for _, v := range o.graph.Neighbors(int(id)) {
		if o.view.Online(v) && !o.gate.severed(id, NodeID(v)) {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// SetLinkFilter installs the partition hook (see Transport.SetLinkFilter).
// A message on a severed link is charged as sent and surfaces through the
// drop callback: the in-memory transports decide at delivery time (a
// message in flight when a partition lands is lost to it, like a packet on
// a cut cable); a TCP process additionally drops an outbound frame before
// the socket, so both directions degrade even if the processes do not
// install the same scripted filter simultaneously.
func (o *overlay) SetLinkFilter(fn LinkFilter) { o.gate.set(fn) }

// deliverable reports whether a message from → to reaches a handler: the
// destination is online and the link is not severed.
func (o *overlay) deliverable(from, to NodeID) bool {
	return o.view.Online(int(to)) && !o.gate.severed(from, to)
}

// latencyBetween picks the edge latency (virtual seconds) when a and b are
// adjacent, direct otherwise (e.g. a query sent straight to a relevant peer
// found in a summary).
func (o *overlay) latencyBetween(a, b NodeID, direct float64) float64 {
	if l, ok := o.graph.LatencyOK(int(a), int(b)); ok {
		return l
	}
	return direct
}

// linkGate is the atomic holder for a transport's installed LinkFilter. The
// zero value is an open gate (no filter, no overhead beyond one atomic
// load).
type linkGate struct {
	fn atomic.Pointer[LinkFilter]
}

// set installs fn (nil removes the filter).
func (g *linkGate) set(fn LinkFilter) {
	if fn == nil {
		g.fn.Store(nil)
		return
	}
	g.fn.Store(&fn)
}

// severed reports whether the installed filter cuts from → to.
func (g *linkGate) severed(from, to NodeID) bool {
	p := g.fn.Load()
	return p != nil && (*p)(from, to)
}

// ledger is one serialized lane's share of the traffic books: messages and
// bytes per message type, the unit of every cost figure in the paper ("the
// number of exchanged messages", §6.2.1). The lane's own context is nearly
// the only writer, so the mutex is uncontended; it exists for the rare
// foreign writer (a drop callback sending on behalf of a remote sender, a
// driver walk beside running dispatchers) and for merge-on-read.
//
// What a transmission costs is the same rule on every transport: a message
// whose payload is serializable — nil, or carrying a registered wire codec
// — is charged the length of its encoded frame (messageWireSize), whether
// or not it ever crosses a socket; only payloads without a codec fall back
// to BaseMessageBytes plus their Sizer estimate, and a walk or flood
// transmission costs BaseMessageBytes.
type ledger struct {
	mu    sync.Mutex
	msgs  *stats.Counter
	bytes *stats.Counter
}

// charge books msgs transmissions of the given type totalling bytes.
func (l *ledger) charge(typ string, msgs, bytes int64) {
	l.mu.Lock()
	l.msgs.Add(typ, msgs)
	l.bytes.Add(typ, bytes)
	l.mu.Unlock()
}

// chargeHops books n payload-less transmissions (walk and flood hops).
func (l *ledger) chargeHops(typ string, n int64) { l.charge(typ, n, n*BaseMessageBytes) }

// books is a transport's set of ledgers, one per serialized lane: one on
// the Network, one per dispatch group on ChannelTransport and
// TCPTransport. Lanes never contend
// on shared accounting; readers merge. Embedding books gives a transport
// its Counter and Bytes methods.
type books []ledger

// newBooks builds n empty ledgers.
func newBooks(n int) books {
	b := make(books, n)
	for i := range b {
		b[i].msgs, b[i].bytes = stats.NewCounter(), stats.NewCounter()
	}
	return b
}

// merged folds every ledger into a fresh one nobody else holds, so later
// charges never alias what a reader was handed. Each ledger is read under
// its own lock: safe while messages fly.
func (b books) merged() *ledger {
	out := &newBooks(1)[0]
	for i := range b {
		l := &b[i]
		l.mu.Lock()
		out.msgs.Merge(l.msgs)
		out.bytes.Merge(l.bytes)
		l.mu.Unlock()
	}
	return out
}

// Counter returns a merged snapshot of the per-type message counts;
// successive calls return fresh (monotonically growing) snapshots.
func (b books) Counter() *stats.Counter { return b.merged().msgs }

// Bytes returns a merged snapshot of the per-type traffic volumes (same
// contract as Counter; the ledger comment states what a message costs).
func (b books) Bytes() *stats.Counter { return b.merged().bytes }

// flood is the Gnutella-style constrained broadcast of all three
// transports, so the §6.2.3 traversal semantics are identical by
// construction: each node forwards to all its neighbors except the sender,
// and duplicate deliveries (cycles) are transmitted but not re-forwarded —
// the paper's "pure flooding algorithm" cost behaviour. charge books the
// transmissions on the calling transport.
func (o *overlay) flood(charge func(typ string, n int64), typ string, src NodeID, ttl int, visit func(NodeID)) map[NodeID]bool {
	type hop struct {
		node NodeID
		from NodeID
		ttl  int
	}
	reached := map[NodeID]bool{src: true}
	if visit != nil {
		visit(src)
	}
	queue := []hop{{node: src, from: src, ttl: ttl}}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		if h.ttl == 0 {
			continue
		}
		for _, nb := range o.Neighbors(h.node) {
			if nb == h.from {
				continue
			}
			charge(typ, 1) // transmission on the wire
			if reached[nb] {
				continue // duplicate: received, dropped, not re-forwarded
			}
			reached[nb] = true
			if visit != nil {
				visit(nb)
			}
			queue = append(queue, hop{node: nb, from: h.node, ttl: h.ttl - 1})
		}
	}
	return reached
}

// walk is the TTL-bounded walk of all three transports: move to the
// neighbor picked by choose until accept returns true or maxHops is
// exhausted; dead ends backtrack. charge books the hops on the calling
// transport.
func (o *overlay) walk(charge func(typ string, n int64), typ string, src NodeID, maxHops int, accept func(NodeID) bool, choose func([]NodeID) NodeID) WalkResult {
	res := WalkResult{Found: -1, Path: []NodeID{src}}
	if accept(src) {
		res.Found = src
		return res
	}
	visited := map[NodeID]bool{src: true}
	stack := []NodeID{src}
	cur := src
	for res.Messages < maxHops {
		var cands []NodeID
		for _, nb := range o.Neighbors(cur) {
			if !visited[nb] {
				cands = append(cands, nb)
			}
		}
		if len(cands) == 0 {
			// Backtrack.
			if len(stack) <= 1 {
				return res
			}
			stack = stack[:len(stack)-1]
			cur = stack[len(stack)-1]
			continue
		}
		next := choose(cands)
		visited[next] = true
		charge(typ, 1)
		res.Messages++
		res.Path = append(res.Path, next)
		stack = append(stack, next)
		cur = next
		if accept(cur) {
			res.Found = cur
			return res
		}
	}
	return res
}

// selective picks the highest-degree candidate, ties breaking on the lower
// node id — the §4.1 find-protocol criterion (after Adamic et al. [23]).
func (o *overlay) selective(cands []NodeID) NodeID {
	best := cands[0]
	for _, c := range cands[1:] {
		if dc, db := o.Degree(c), o.Degree(best); dc > db || (dc == db && c < best) {
			best = c
		}
	}
	return best
}
