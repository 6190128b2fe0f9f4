package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"p2psum/internal/bk"
	"p2psum/internal/liveness"
	"p2psum/internal/p2p"
	"p2psum/internal/saintetiq"
	"p2psum/internal/summarystore"
)

// This file holds the shared state of the summary-management system:
// configuration, per-peer protocol state, message payloads and the System
// wiring. The protocol logic lives in the files mirroring the paper's
// structure: construct.go (§4.1 domain construction), reconcile.go (§4.2
// freshness and reconciliation) and membership.go (§4.3 peer dynamicity).

// Message type names (the units of every message-count figure).
const (
	MsgSumpeer   = "sumpeer"   // domain construction broadcast (§4.1)
	MsgLocalsum  = "localsum"  // partner ships its local summary (§4.1)
	MsgDrop      = "drop"      // partner leaves an old domain (§4.1)
	MsgFind      = "find"      // selective walk to locate a summary peer (§4.1)
	MsgPush      = "push"      // freshness notification (§4.2.1)
	MsgReconcile = "reconcile" // ring reconciliation (§4.2.2)
	MsgRelease   = "release"   // summary-peer departure notice (§4.3)
	MsgElect     = "elect"     // proactive summary-peer re-election (§4.3 extension)
)

// Role distinguishes clients from summary peers.
type Role int

// Roles.
const (
	RoleClient Role = iota
	RoleSummaryPeer
)

// Config tunes the summary-management system.
type Config struct {
	// Alpha is the freshness threshold α: reconciliation triggers when
	// Σv/|CL| >= Alpha (§6.1.1). Typical range 0.1–0.8 (Table 3).
	Alpha float64
	// ConstructionTTL bounds the sumpeer broadcast (the paper suggests 2).
	ConstructionTTL int
	// FindBudget bounds the selective walk of the find protocol.
	FindBudget int
	// Mode selects one-bit (paper's final choice) or two-bit freshness.
	Mode Mode
	// KeepUnavailable selects the §4.3 "first alternative" in two-bit
	// mode: descriptions of departed peers are kept and queried instead of
	// accelerating reconciliation.
	KeepUnavailable bool
	// MergeOnJoin immediately merges a joining peer's local summary into
	// the global summary instead of deferring to the next reconciliation
	// (the paper defers, setting v=1; this switch is an ablation).
	MergeOnJoin bool
	// DataLevel makes localsum/reconciliation carry real hierarchies.
	DataLevel bool
	// BK is the common background knowledge (required when DataLevel).
	BK *bk.BK
	// TreeCfg configures merged hierarchies.
	TreeCfg saintetiq.Config
	// Shards partitions each global summary across this many independently
	// lockable store shards (data level only): merges and reconciliation
	// deltas apply per shard, queries fan out across shards. 0 or 1 keeps
	// the paper's single-tree layout.
	Shards int
	// ReconcileTimeout arms a retransmit timer (virtual seconds, plus a
	// per-partner allowance) whenever a §4.2.2 ring token is launched: if
	// the token is lost — lossy links drop it silently — the summary peer
	// restarts the ring instead of sticking in `reconciling` forever.
	// 0 uses DefaultConfig's timeout; negative disables the timer.
	ReconcileTimeout float64
	// ReconcileRetries bounds consecutive retransmits of one
	// reconciliation; when exhausted the summary peer abandons the round
	// (the next push re-triggers it). 0 uses the default.
	ReconcileRetries int
	// GossipInterval arms a periodic anti-entropy liveness gossip per
	// local node, every this many virtual seconds (§4.3 made symmetric: the
	// processes of a TCP deployment converge on one membership view). 0
	// disables the periodic timers. Not supported on the discrete-event
	// Network — its Settle runs timers to quiescence and would chase the
	// re-arming timer forever; NewSystem rejects the combination. Drive
	// GossipRound at explicit virtual times there instead.
	GossipInterval float64
	// GossipPiggyback embeds the sender's liveness view in push and
	// reconcile payloads, so liveness spreads with the maintenance traffic
	// at no extra message cost.
	GossipPiggyback bool
	// GossipFullSnapshots disables delta gossip: every tail carries the
	// sender's whole view, as before per-link version tracking existed.
	// Deltas and snapshots converge to the same views (the equivalence
	// tests drive both modes over one churn trace); this flag exists for
	// those tests and for byte-cost comparisons.
	GossipFullSnapshots bool
	// SuspectTimeout is the delay (virtual seconds) before a Suspect node —
	// silently departed, or the target of a dropped message — is confirmed
	// Dead in the liveness view. 0 uses DefaultSuspectTimeout; negative
	// leaves suspicions unconfirmed (the node still counts as offline).
	SuspectTimeout float64
	// ProactiveElection enables the §4.3 extension for summary-peer
	// death: when the liveness view confirms a domain's summary peer
	// Dead, the surviving partners elect a deterministic successor — the
	// highest-degree online member of the orphaned domain, ties to the
	// lower id — through a MsgElect propose/promote/announce exchange,
	// instead of each partner independently walking for a new domain.
	// Off by default: the paper's baseline reaction is the find walk.
	ProactiveElection bool
}

// DefaultConfig returns the paper's settings: α=0.3, TTL=2, one-bit mode,
// a single-tree store, and loss recovery armed at 30 virtual seconds with
// 3 retries.
func DefaultConfig() Config {
	return Config{
		Alpha:            0.3,
		ConstructionTTL:  2,
		FindBudget:       32,
		Mode:             OneBit,
		TreeCfg:          saintetiq.DefaultConfig(),
		ReconcileTimeout: 30,
		ReconcileRetries: 3,
	}
}

// Peer is the per-node protocol state. Each field is owned by the peer's
// own handlers (serialized by its dispatch group) or by driver code under
// Transport.Exec — except sp/spHops, which find walks launched from other
// peers' handlers read across dispatch groups, so they are atomics.
type Peer struct {
	sys  *System
	id   p2p.NodeID
	role Role

	// Client state.
	sp         atomic.Int64 // current summary peer (-1 when none)
	spHops     atomic.Int32 // distance to it, in hops
	local      *saintetiq.Tree
	seenRounds map[sumpeerKey]bool
	gossipTick int                        // round-robin cursor over the node's gossip targets
	links      map[p2p.NodeID]*gossipLink // per-partner delta-gossip state (see gossipLink)
	// electProposed is the dead summary peer a MsgElect proposal is in
	// flight for (-1 none); it dedupes proposals while the successor's
	// announcement travels, and a dropped proposal clears it for retry.
	electProposed p2p.NodeID
	// pendingElect parks a successor announcement that arrived before the
	// gossip justifying it (the death, the successor's self-claim);
	// electSuccessor re-validates it against the view once the death is
	// known here. Nil when nothing is parked.
	pendingElect *ElectPayload

	// Summary-peer state.
	gs           summarystore.Store
	cl           *CooperationList
	reconciling  bool
	reconcileSeq int // generation of the in-flight ring (stale-token guard)
	retriesLeft  int // retransmits remaining for the in-flight ring
	knownSPs     []p2p.NodeID
}

// ID returns the peer's node id.
func (p *Peer) ID() p2p.NodeID { return p.id }

// Role returns the peer's role.
func (p *Peer) Role() Role { return p.role }

// curSP reads the peer's summary-peer pointer (-1 when none). Safe from
// any dispatch group.
func (p *Peer) curSP() p2p.NodeID { return p2p.NodeID(p.sp.Load()) }

// curSPHops reads the hop distance to the current summary peer.
func (p *Peer) curSPHops() int { return int(p.spHops.Load()) }

// setSP points the peer at a summary peer at the given hop distance, and
// records the claim in the liveness view so Coverage/DomainMembers — and,
// through gossip, every other process — see the membership change.
func (p *Peer) setSP(sp p2p.NodeID, hops int) {
	p.sp.Store(int64(sp))
	p.spHops.Store(int32(hops))
	p.sys.net.Liveness().SetSP(int(p.id), int(sp))
}

// clearSP detaches the peer from its domain (view claim included).
func (p *Peer) clearSP() {
	p.sp.Store(-1)
	p.sys.net.Liveness().SetSP(int(p.id), liveness.NoSP)
}

// SummaryPeer returns the peer's current summary peer (-1 when none; a
// summary peer is its own).
func (p *Peer) SummaryPeer() p2p.NodeID {
	if p.role == RoleSummaryPeer {
		return p.id
	}
	return p.curSP()
}

// IsPartner reports whether the peer currently belongs to a domain.
func (p *Peer) IsPartner() bool { return p.role == RoleSummaryPeer || p.curSP() >= 0 }

// LocalTree returns the peer's local summary (nil at protocol level).
func (p *Peer) LocalTree() *saintetiq.Tree { return p.local }

// SummaryStore returns the summary peer's global-summary store (nil for
// clients and at protocol level). Queries should go through it — see
// query.AnswerStore — so sharded stores fan out instead of materializing.
func (p *Peer) SummaryStore() summarystore.Store { return p.gs }

// GlobalSummary returns the summary peer's current global summary as one
// hierarchy. Single-tree stores return their live tree (treat it as
// read-only); sharded stores materialize a merged snapshot per call.
func (p *Peer) GlobalSummary() *saintetiq.Tree {
	if p.gs == nil {
		return nil
	}
	return p.gs.Snapshot()
}

// CooperationList returns the summary peer's partner table (nil for
// clients).
func (p *Peer) CooperationList() *CooperationList { return p.cl }

type sumpeerKey struct {
	sp    p2p.NodeID
	round int
}

// Protocol payloads. They are exported because the wire codec layer
// (internal/wire, registrations in wirecodec.go) serializes them onto real
// sockets: handlers must be able to type-assert the concrete type a remote
// process decoded. Protocol logic outside this package should still treat
// them as core's own.

// SumpeerPayload announces a summary peer during §4.1 domain construction.
type SumpeerPayload struct {
	// SP is the broadcasting summary peer.
	SP p2p.NodeID
	// Round is the construction round (duplicate-broadcast suppression).
	Round int
	// Hops is the distance the announcement has travelled.
	Hops int
}

// LocalsumPayload ships a partner's local summary to its summary peer.
type LocalsumPayload struct {
	// Tree is the local summary (nil at protocol level).
	Tree *saintetiq.Tree
	// Rejoin marks a post-construction join (§4.3): the merge defers to
	// the next reconciliation.
	Rejoin bool
}

// PushPayload carries a §4.2.1 freshness notification.
type PushPayload struct {
	// V is the pushed freshness value.
	V Freshness
	// Gossip optionally piggybacks the sender's liveness tail for the
	// target (Config.GossipPiggyback), so membership spreads with the
	// maintenance traffic at no extra message cost. Nil when piggybacking
	// is off.
	Gossip *GossipTail
}

// ReconcilePayload is the §4.2.2 ring token.
type ReconcilePayload struct {
	// SP is the summary peer that launched the ring.
	SP p2p.NodeID
	// Seq is the ring generation; stale tokens (pre-retransmit) are
	// ignored.
	Seq int
	// NewGS is the new global summary under construction (nil at protocol
	// level).
	NewGS *saintetiq.Tree
	// Remaining lists the partners the token has yet to visit.
	Remaining []p2p.NodeID
	// Merged lists the partners that merged their local summaries in.
	Merged []p2p.NodeID
	// Gossip optionally piggybacks the forwarding peer's liveness tail
	// for the next hop (Config.GossipPiggyback); each ring hop rebuilds
	// it. Nil when piggybacking is off.
	Gossip *GossipTail
	// idBytes is the summed varint size of the Remaining and Merged
	// elements (length prefixes excluded), kept current hop by hop so
	// sizing the token costs O(1) instead of O(ring). It never goes on
	// the wire; 0 with a non-empty list means "not counted" (every id
	// costs at least one byte) — see idListBytes.
	idBytes int
}

// Stats aggregates protocol-level events.
type Stats struct {
	Reconciliations int
	// ReconcileRetransmits counts ring restarts after a token timeout
	// (lossy links); ReconcileAborts counts rounds abandoned after the
	// retry budget ran out.
	ReconcileRetransmits int
	ReconcileAborts      int
	Pushes               int
	Joins                int
	GracefulLeaves       int
	Failures             int
	SPDepartures         int
	FindWalks            int
	// Elections counts proactive summary-peer promotions
	// (Config.ProactiveElection).
	Elections int
}

// System drives the summary-management protocol over any p2p.Transport —
// the deterministic sim-backed Network or the concurrent ChannelTransport;
// the protocol code never sees the concrete type.
//
// Concurrency contract: the mutating entry points (Construct, Leave, Join,
// MarkModified) serialize themselves with message handlers via
// Transport.Exec, so they are safe to call while messages are in flight on
// a concurrent transport. Read accessors (Coverage, DomainOf, Peer state)
// are not synchronized — settle the transport first; Stats locks
// internally and may be read at any time. When the transport shards
// dispatch (p2p.DispatchGrouper), AssignSummaryPeers maps every domain
// onto one dispatch group, so each peer's handlers stay serialized while
// independent domains run concurrently.
type System struct {
	cfg         Config
	net         p2p.Transport
	peers       []*Peer
	sps         []p2p.NodeID
	round       int
	built       bool
	gossipArmed bool

	statsMu sync.Mutex
	stats   Stats

	// electMu guards elected: dead summary peer -> successor this process
	// promoted or learned from an announcement. The record is what keeps
	// one death from minting several summary peers — once a successor
	// resolved, later election triggers attach to it instead of
	// re-evaluating (the promoted successor no longer claims the dead
	// peer's domain, so a re-evaluation would crown the next member).
	electMu sync.Mutex
	elected map[p2p.NodeID]p2p.NodeID

	// OnReconcile, if set, observes every completed reconciliation with
	// the set of merged partners (experiments hook this). On a
	// sharded-dispatch transport it is invoked concurrently from
	// different dispatch groups; hooks must be safe for that.
	OnReconcile func(sp p2p.NodeID, merged []p2p.NodeID)

	// OnInstall, if set, observes every data-level reconciliation install
	// at a summary peer with the number of store shards the install
	// actually replaced (0 when the rebuilt version matched the current
	// one shard for shard). It fires right after the store swap, before
	// the freshness reset, on the summary peer's dispatch goroutine — the
	// serving edge (internal/gateway) subscribes to it to scrub its
	// generation-keyed cache proactively. Hooks must be fast,
	// concurrency-safe across dispatch groups, and must not call
	// Exec/Settle (they run inside the dispatch they would wait on).
	OnInstall func(sp p2p.NodeID, shardsSwapped int)

	// extension handles message types the core protocol does not own
	// (SetExtension).
	extension func(p *Peer, msg *p2p.Message)
}

// NewSystem wires a system onto the transport. Every node starts as a
// client.
func NewSystem(net p2p.Transport, cfg Config) (*System, error) {
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("core: alpha %g out of (0,1]", cfg.Alpha)
	}
	if cfg.ConstructionTTL < 1 {
		return nil, errors.New("core: construction TTL must be >= 1")
	}
	if cfg.FindBudget < 1 {
		return nil, errors.New("core: find budget must be >= 1")
	}
	if cfg.DataLevel && cfg.BK == nil {
		return nil, errors.New("core: data level requires a background knowledge")
	}
	if cfg.GossipInterval > 0 {
		if _, ok := net.(*p2p.Network); ok {
			return nil, errors.New("core: GossipInterval is not supported on the discrete-event Network (Settle runs timers to quiescence); drive GossipRound at explicit virtual times instead")
		}
	}
	s := &System{cfg: cfg, net: net}
	s.peers = make([]*Peer, net.Len())
	for i := range s.peers {
		p := &Peer{sys: s, id: p2p.NodeID(i), seenRounds: make(map[sumpeerKey]bool), electProposed: -1}
		p.clearSP()
		s.peers[i] = p
		net.SetHandler(p.id, p.handle)
	}
	net.SetDrop(s.onDrop)
	return s, nil
}

// Transport returns the underlying overlay transport.
func (s *System) Transport() p2p.Transport { return s.net }

// Config returns the active configuration.
func (s *System) Config() Config { return s.cfg }

// Stats returns a snapshot of the protocol event counters. The counters
// are updated from handler paths, which run concurrently across dispatch
// groups on a sharded transport, so reads go through the same lock.
func (s *System) Stats() Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

// addStat applies one counter update under the stats lock. Handlers of
// different dispatch groups (e.g. two summary peers completing
// reconciliations concurrently) bump these counters in parallel.
func (s *System) addStat(f func(*Stats)) {
	s.statsMu.Lock()
	f(&s.stats)
	s.statsMu.Unlock()
}

// Peer returns the protocol state of a node.
func (s *System) Peer(id p2p.NodeID) *Peer { return s.peers[id] }

// HasPeer reports whether id names a peer of this system — the bounds
// check for ids that arrive from outside the overlay (gateway clients,
// HTTP requests), which must not be able to panic an accessor.
func (s *System) HasPeer(id p2p.NodeID) bool { return id >= 0 && int(id) < len(s.peers) }

// SummaryPeers returns the elected summary peers.
func (s *System) SummaryPeers() []p2p.NodeID { return s.sps }

// SetLocalTree installs a peer's local summary (data level).
func (s *System) SetLocalTree(id p2p.NodeID, t *saintetiq.Tree) { s.peers[id].local = t }

func (s *System) newTree() *saintetiq.Tree {
	if !s.cfg.DataLevel {
		return nil
	}
	return saintetiq.New(s.cfg.BK, s.cfg.TreeCfg)
}

// newStore builds a summary peer's global-summary store: single-tree for
// Shards <= 1, sharded otherwise. Nil at protocol level.
func (s *System) newStore() summarystore.Store {
	if !s.cfg.DataLevel {
		return nil
	}
	return summarystore.New(s.cfg.BK, s.cfg.TreeCfg, s.cfg.Shards)
}

// SetExtension installs a handler for message types outside the core
// protocol (e.g. routing's remote query service): any message whose type
// core does not own is forwarded to fn with the receiving peer. fn runs on
// the peer's dispatch group like a protocol handler — same serialization,
// same "no Exec/Settle from handlers" contract. Install it before traffic
// flows; a second call replaces the first.
func (s *System) SetExtension(fn func(p *Peer, msg *p2p.Message)) { s.extension = fn }

// handle dispatches incoming protocol messages.
func (p *Peer) handle(msg *p2p.Message) {
	switch msg.Type {
	case MsgSumpeer:
		p.onSumpeer(msg)
	case MsgLocalsum:
		p.onLocalsum(msg)
	case MsgDrop:
		if p.cl != nil {
			p.cl.Remove(msg.From)
		}
	case MsgPush:
		p.onPush(msg)
	case MsgReconcile:
		p.onReconcile(msg)
	case MsgRelease:
		p.onRelease(msg)
	case MsgElect:
		p.onElect(msg)
	case MsgGossip:
		p.onGossip(msg)
	default:
		if p.sys.extension != nil {
			p.sys.extension(p, msg)
		}
	}
}
