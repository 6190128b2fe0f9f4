// Package routing implements query routing over summaries (paper §5.2) and
// the two baselines of the Figure 7 comparison: the centralized index and
// pure Gnutella flooding with TTL = 3 (§6.2.3).
//
// The SQ (summary querying) router follows the paper's flow: the query goes
// to the originator's summary peer, the global summary yields the relevant
// peers PQ, the query is sent to them directly, and — for partial/total
// lookup queries that need more results — the responders, the originator
// and the summary peer flood with a limited TTL while the summary peer
// contacts the summary peers it knows, until enough results are gathered or
// the network is covered.
//
// Like the paper's own evaluation, the router runs at the protocol level
// against a match oracle (10% of peers match each query, Table 3); the
// data-level path through real summaries lives in RouteData.
package routing

import (
	"errors"
	"fmt"
	"sort"

	"p2psum/internal/core"
	"p2psum/internal/p2p"
	"p2psum/internal/query"
	"p2psum/internal/saintetiq"
	"p2psum/internal/stats"
)

// Message type names for query traffic.
const (
	MsgQuery         = "query"          // query shipped to an SP or a relevant peer
	MsgQueryResponse = "query-response" // a matching peer answers
	MsgQueryFlood    = "query-flood"    // inter-domain flooding transmissions
	MsgSPLink        = "sp-link"        // SP-to-SP long-range forwarding
)

// Mode selects the recall/precision trade-off of §6.1.2.
type Mode int

// Routing modes.
const (
	// Balanced propagates the query to PQ as derived from the global
	// summary, stale entries included (the paper's default, used for the
	// worst-case Figure 4 accounting).
	Balanced Mode = iota
	// Precise propagates only to V = PQ ∩ Pfresh: no false positives, but
	// stale matching peers are missed (Figure 5's false negatives).
	Precise
	// MaxRecall propagates to V = PQ ∪ Pold: every stale partner is
	// queried too, so no false negatives, at the cost of precision.
	MaxRecall
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Balanced:
		return "balanced"
	case Precise:
		return "precise"
	case MaxRecall:
		return "max-recall"
	default:
		return "?"
	}
}

// Oracle supplies per-peer ground truth and described state for a query.
// At the protocol level the evaluation draws both from the Table 3 match
// model; at the data level they come from the real databases.
type Oracle struct {
	// Current answers "does the peer's database match the query right
	// now" (the query scope QS).
	Current map[p2p.NodeID]bool
	// Described answers "does the peer's merged description match" (what
	// the global summary believes). Nil means identical to Current.
	Described map[p2p.NodeID]bool
}

// CurrentMatch reports ground truth for p.
func (o *Oracle) CurrentMatch(p p2p.NodeID) bool { return o.Current[p] }

// DescribedMatch reports the summary's belief for p.
func (o *Oracle) DescribedMatch(p p2p.NodeID) bool {
	if o.Described == nil {
		return o.Current[p]
	}
	return o.Described[p]
}

// Result is the outcome of routing one query.
type Result struct {
	// Messages is the total number of exchanged messages (the paper's
	// cost unit), broken down in Breakdown.
	Messages int64
	// Breakdown maps message type to count.
	Breakdown map[string]int64
	// Results is the number of answers returned to the originator.
	Results int
	// DomainsVisited counts the domains the query was processed in.
	DomainsVisited int
	// Accuracy accounts returned-vs-relevant peers.
	Accuracy stats.Accuracy
}

func newResult() *Result { return &Result{Breakdown: make(map[string]int64)} }

func (r *Result) add(typ string, n int64) {
	r.Breakdown[typ] += n
	r.Messages += n
}

// SQRouter routes queries through the summary management system.
type SQRouter struct {
	sys *core.System
	// InterDomainTTL bounds the §5.2.2 flooding stage (the paper keeps it
	// deliberately small; 1 reproduces the Figure 7 factors).
	InterDomainTTL int
	// SPLinks is the number of long-range summary-peer links used per
	// flooding stage (the paper assumes ~k links).
	SPLinks int
	// Mode selects the §6.1.2 recall/precision trade-off.
	Mode Mode
}

// NewSQRouter wires a router with the paper's defaults.
func NewSQRouter(sys *core.System) *SQRouter {
	return &SQRouter{sys: sys, InterDomainTTL: 1, SPLinks: 4}
}

// relevantPeers derives PQ for one domain from its cooperation list and the
// oracle, applying the routing mode.
func (r *SQRouter) relevantPeers(sp p2p.NodeID, oracle *Oracle) []p2p.NodeID {
	cl := r.sys.Peer(sp).CooperationList()
	if cl == nil {
		return nil
	}
	var pq []p2p.NodeID
	// The domain is the summary peer plus its clients (§3.1): the SP's own
	// data is part of the global summary and is always fresh.
	if oracle.DescribedMatch(sp) {
		pq = append(pq, sp)
	}
	for _, p := range cl.Partners() {
		v, _ := cl.Get(p)
		switch r.Mode {
		case Precise:
			if v == core.Fresh && oracle.DescribedMatch(p) {
				pq = append(pq, p)
			}
		case MaxRecall:
			if oracle.DescribedMatch(p) || v != core.Fresh {
				pq = append(pq, p)
			}
		default:
			if oracle.DescribedMatch(p) {
				pq = append(pq, p)
			}
		}
	}
	return pq
}

// Route processes a query posed at origin, requiring the given number of
// results (required <= 0 means a total-lookup query). It returns the
// message accounting and accuracy of the answer set.
func (r *SQRouter) Route(origin p2p.NodeID, oracle *Oracle, required int) (*Result, error) {
	net := r.sys.Transport()
	res := newResult()
	firstSP := r.sys.DomainOf(origin)
	if firstSP < 0 {
		return nil, fmt.Errorf("routing: origin %d has no domain", origin)
	}
	if required <= 0 {
		required = 1 << 30 // total lookup: cover the network
	}

	// Ground truth for recall accounting: every online matching peer.
	relevant := make(map[int]bool)
	for _, id := range net.OnlineIDs() {
		if oracle.CurrentMatch(id) {
			relevant[int(id)] = true
		}
	}
	returned := make(map[int]bool)

	visited := make(map[p2p.NodeID]bool)
	pending := []p2p.NodeID{firstSP}
	var lastResponders []p2p.NodeID

	for len(pending) > 0 && res.Results < required {
		sp := pending[0]
		pending = pending[1:]
		if visited[sp] || !net.Online(sp) {
			continue
		}
		visited[sp] = true
		res.DomainsVisited++

		// One message carries the query to the summary peer (from the
		// originator or from the previous stage).
		res.add(MsgQuery, 1)

		// The summary peer matches the query against its global summary.
		pq := r.relevantPeers(sp, oracle)
		// Fan the query out to the relevant peers.
		res.add(MsgQuery, int64(len(pq)))
		var responders []p2p.NodeID
		for _, p := range pq {
			returned[int(p)] = true
			if net.Online(p) && oracle.CurrentMatch(p) {
				responders = append(responders, p)
			}
		}
		// Hits respond to the originator.
		res.add(MsgQueryResponse, int64(len(responders)))
		res.Results += len(responders)
		lastResponders = responders

		if res.Results >= required {
			break
		}

		// Inter-domain stage (§5.2.2): responders, originator and the
		// summary peer flood with a limited TTL; the SP also forwards to
		// the summary peers it knows.
		discovered := r.floodStage(res, sp, origin, lastResponders, visited)
		pending = append(pending, discovered...)
	}

	res.Accuracy.ObserveSets(returned, relevant)
	return res, nil
}

// floodStage performs one §5.2.2 expansion and returns newly discovered
// domains, deterministically ordered. Following the paper: the summary peer
// sends a flooding request to each responder and to the originator; each of
// those peers then sends the query to its neighbors that do not belong to
// its own domain, with a limited TTL, and a branch stops as soon as a new
// domain is reached; the summary peer also forwards to the summary peers it
// knows.
func (r *SQRouter) floodStage(res *Result, sp, origin p2p.NodeID, responders []p2p.NodeID, visited map[p2p.NodeID]bool) []p2p.NodeID {
	net := r.sys.Transport()
	found := make(map[p2p.NodeID]bool)

	flooders := append([]p2p.NodeID{origin}, responders...)
	// Flooding requests from the SP to each flooder.
	res.add(MsgQuery, int64(len(flooders)))
	flooders = append(flooders, sp)

	for _, f := range flooders {
		if !net.Online(f) {
			continue
		}
		home := r.sys.DomainOf(f)
		// Bounded expansion across domain borders.
		type hop struct {
			node p2p.NodeID
			ttl  int
		}
		frontier := []hop{{f, r.InterDomainTTL}}
		seen := map[p2p.NodeID]bool{f: true}
		for len(frontier) > 0 {
			h := frontier[0]
			frontier = frontier[1:]
			if h.ttl == 0 {
				continue
			}
			for _, v := range net.Neighbors(h.node) {
				if seen[v] {
					continue
				}
				d := r.sys.DomainOf(v)
				if h.node == f && d == home {
					continue // first hop targets only out-of-domain neighbors
				}
				seen[v] = true
				res.add(MsgQueryFlood, 1)
				if d >= 0 && d != home && !visited[d] {
					found[d] = true
					continue // new domain reached: the query stops here
				}
				frontier = append(frontier, hop{v, h.ttl - 1})
			}
		}
	}

	// SP long-range links accelerate domain coverage (§5.2.2).
	links := 0
	for _, other := range r.sys.SummaryPeers() {
		if other == sp || visited[other] || !net.Online(other) {
			continue
		}
		res.add(MsgSPLink, 1)
		found[other] = true
		links++
		if links >= r.SPLinks {
			break
		}
	}

	out := make([]p2p.NodeID, 0, len(found))
	for d := range found {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FloodQuery is the pure-flooding baseline: "broadcasting the query in the
// network till a stop condition is satisfied", with each broadcast bounded
// by the given TTL (3 in the paper). When required > 0 and a round returns
// too few results, the ring expands (TTL+1) and the query is re-broadcast —
// every retransmission hits the wire, which is exactly why pure flooding
// gets expensive. required <= 0 performs a single round.
func FloodQuery(net p2p.Transport, origin p2p.NodeID, ttl int, oracle *Oracle, required int) *Result {
	res := newResult()
	relevant := make(map[int]bool)
	for _, id := range net.OnlineIDs() {
		if oracle.CurrentMatch(id) {
			relevant[int(id)] = true
		}
	}
	if required <= 0 {
		required = -1 // single round
	}

	returned := make(map[int]bool)
	online := net.OnlineCount()
	prevReach := -1
	for round := 0; ; round++ {
		before := net.Counter().Get(MsgQueryFlood)
		reached := net.Flood(MsgQueryFlood, origin, ttl+round, nil, nil)
		res.add(MsgQueryFlood, net.Counter().Get(MsgQueryFlood)-before)
		hits := 0
		for id := range reached {
			if oracle.CurrentMatch(id) {
				if !returned[int(id)] {
					returned[int(id)] = true
					// Every matching peer responds each round it is hit;
					// count only the first response per peer as a result.
					res.Results++
				}
				hits++
			}
		}
		res.add(MsgQueryResponse, int64(hits))
		if required < 0 || res.Results >= required {
			break
		}
		if len(reached) >= online || len(reached) <= prevReach {
			// The network is entirely covered, or churn has disconnected
			// the remainder and the ring stopped growing (§5.2.2 stop
			// rule: "the network is entirely covered").
			break
		}
		prevReach = len(reached)
	}
	res.Accuracy.ObserveSets(returned, relevant)
	return res
}

// CentralizedQuery is the centralized-index baseline with a complete,
// consistent index: one message to the index, one to each relevant peer,
// one response each (§6.2.3).
func CentralizedQuery(net p2p.Transport, oracle *Oracle) *Result {
	res := newResult()
	res.add(MsgQuery, 1)
	relevant := make(map[int]bool)
	for _, id := range net.OnlineIDs() {
		if oracle.CurrentMatch(id) {
			relevant[int(id)] = true
		}
	}
	res.add(MsgQuery, int64(len(relevant)))
	res.add(MsgQueryResponse, int64(len(relevant)))
	res.Results = len(relevant)
	res.DomainsVisited = 1
	res.Accuracy.ObserveSets(relevant, relevant)
	return res
}

// DataAnswer is the outcome of a data-level summary query in one domain.
type DataAnswer struct {
	// Peers is PQ: the peers the global summary designates.
	Peers []p2p.NodeID
	// Answer is the approximate answer computed entirely in the summary
	// domain (§5.2.2) — no original record was touched.
	Answer *query.Answer
	// Visited is the number of summary nodes the selection explored.
	Visited int
}

// RouteData evaluates a flexible query against the global-summary store of
// the origin's domain: peer localization plus approximate answering (§5).
// The evaluation fans out across the store's shards under their read locks
// and merges the graded class results, so it is safe to run while the
// domain keeps merging and reconciling concurrently.
func RouteData(sys *core.System, origin p2p.NodeID, q query.Query) (*DataAnswer, error) {
	sp := sys.DomainOf(origin)
	if sp < 0 {
		return nil, fmt.Errorf("routing: origin %d has no domain", origin)
	}
	st := sys.Peer(sp).SummaryStore()
	if st == nil {
		return nil, errors.New("routing: domain has no data-level global summary")
	}
	sa, err := query.AnswerStore(st, q)
	if err != nil {
		return nil, err
	}
	da := &DataAnswer{Answer: sa.Answer, Visited: sa.Visited}
	if len(sa.Peers) > 0 { // an empty PQ stays nil: JSON null, as answers have always read
		da.Peers = PeersOf(sa.Peers)
	}
	return da, nil
}

// PeersOf converts saintetiq peer ids to overlay node ids (helper for
// callers crossing the two id spaces).
func PeersOf(ids []saintetiq.PeerID) []p2p.NodeID {
	out := make([]p2p.NodeID, len(ids))
	for i, id := range ids {
		out[i] = p2p.NodeID(id)
	}
	return out
}
