package core

import (
	"p2psum/internal/liveness"
	"p2psum/internal/p2p"
)

// Liveness dissemination: the §4.3 failure-detection paths made symmetric
// across transports. Every transport keeps its membership truth in a
// liveness.View; this file spreads that truth between the processes of a
// TCP deployment with an anti-entropy gossip message (and piggybacked view
// snapshots on push/reconcile traffic), and files the suspicion half of the
// failure detector: a dropped message or a silent departure turns a node
// Suspect, and a timer scheduled through Transport.After — so the
// discrete-event engine stays deterministic — confirms it Dead unless the
// node rejoins first.

// MsgGossip is the anti-entropy liveness exchange (§4.3 made symmetric):
// the payload carries the sender's membership view — a full snapshot on
// first contact, a delta of the entries changed since the partner's last
// acknowledged version afterwards — the receiver merges it, and answers
// once when it holds strictly newer information.
const MsgGossip = "gossip"

// GossipTail is one liveness exchange from a sender to one partner: either
// a full positional snapshot (first contact, periodic resync from a stale
// ack base, or Config.GossipFullSnapshots) or the delta of entries changed
// since the version the sender believes the partner has. Ver stamps the
// sender's view version the tail brings the partner up to; Ack confirms
// the highest version of the PARTNER's view the sender has merged, which
// is what lets the partner send deltas back instead of snapshots.
type GossipTail struct {
	// Full marks Entries as a positional whole-view snapshot; otherwise
	// Delta carries the changed entries by id.
	Full bool
	// Entries is the sender's per-node liveness vector (index = node id),
	// set when Full.
	Entries []liveness.Entry
	// Delta is the set of entries changed since the partner's last known
	// version, ascending by id, set when !Full.
	Delta []liveness.Change
	// Ver is the sender's view version this tail represents. A partner
	// that has merged it may be sent deltas based on it. A Ver below what
	// the partner already saw from this sender reveals a sender restart.
	Ver uint64
	// Ack is the highest version of the receiver's view the sender has
	// merged (0: never seen any — views start at version 1 — telling the
	// receiver to fall back to a full snapshot).
	Ack uint64
}

// GossipPayload carries one anti-entropy liveness exchange.
type GossipPayload struct {
	// Tail is the sender's view, as a snapshot or delta.
	Tail GossipTail
	// Reply marks the answer to a received gossip. Replies are never
	// answered again, so one exchange is at most one round trip.
	Reply bool
}

// gossipEnabled reports whether liveness dissemination is on in any form —
// the precondition for indirect (drop-based) suspicion: without gossip
// there is no refutation path, and one transient drop would mark a healthy
// remote node dead forever.
func (s *System) gossipEnabled() bool {
	return s.cfg.GossipPiggyback || s.cfg.GossipInterval > 0
}

// suspect files indirect failure evidence against a node: an Alive entry
// turns Suspect (making the node count as offline everywhere the view is
// consulted) and a confirmation timer is armed — Config.SuspectTimeout
// virtual seconds later the suspicion is promoted to Dead unless the node
// rejoined (higher incarnation) in the meantime. On the in-memory
// transports the view is ground truth, so a drop already implies a
// non-alive entry and this is a no-op; on TCP it is how a process learns
// that a remote node (or a whole remote process) silently died.
func (s *System) suspect(id p2p.NodeID) {
	if id < 0 || int(id) >= s.net.Len() {
		return
	}
	view := s.net.Liveness()
	inc, changed := view.MarkSuspect(int(id))
	if !changed {
		return
	}
	timeout := s.cfg.SuspectTimeout
	if timeout < 0 {
		return
	}
	if timeout == 0 {
		timeout = DefaultSuspectTimeout
	}
	s.net.After(id, timeout, func() {
		if view.Confirm(int(id), inc) {
			s.onConfirmedDead(id)
		}
	})
}

// DefaultSuspectTimeout is the suspect -> dead confirmation delay (virtual
// seconds) when Config.SuspectTimeout is zero.
const DefaultSuspectTimeout = 30

// gossipLink is one peer's delta-gossip state toward one partner: what the
// partner has confirmed of this view, and what this peer has merged of the
// partner's. The map entry lives on the sending peer and is touched only
// from its serialized contexts (its handlers, its timers, onDrop for its
// messages, and Exec), like the rest of the Peer state.
type gossipLink struct {
	seen  uint64 // highest version of the partner's view merged here
	acked uint64 // highest version of ours the partner confirmed merging
	sent  uint64 // optimistic watermark: our version as of the last send
	sends int    // sends on this link, for the periodic ack-base resync
}

// link returns (allocating on first use) the peer's gossip state toward
// the partner.
func (p *Peer) link(id p2p.NodeID) *gossipLink {
	if p.links == nil {
		p.links = make(map[p2p.NodeID]*gossipLink)
	}
	l := p.links[id]
	if l == nil {
		l = &gossipLink{}
		p.links[id] = l
	}
	return l
}

// gossipResyncEvery rebases every Nth send on a link on the partner's
// acknowledged version instead of the optimistic sent watermark. Acks lag
// (they ride the partner's next tail back), so the optimistic watermark is
// what keeps steady-state deltas small; the periodic rebase bounds how
// long a divergence that slipped past drop detection can persist.
const gossipResyncEvery = 16

// tailFor builds the gossip tail from p to target and advances the link's
// optimistic watermark. First contact (nothing acked, nothing sent) and
// Config.GossipFullSnapshots send the whole view; otherwise the delta
// since the watermark — rebased on the acknowledged version every
// gossipResyncEvery sends.
func (s *System) tailFor(p *Peer, target p2p.NodeID) GossipTail {
	l := p.link(target)
	l.sends++
	base := l.sent
	if s.cfg.GossipFullSnapshots {
		base = 0
	} else if l.sends%gossipResyncEvery == 0 {
		base = l.acked
	}
	view := s.net.Liveness()
	var tail GossipTail
	if base == 0 {
		tail.Full = true
		tail.Entries, tail.Ver = view.VersionedSnapshot()
	} else {
		tail.Delta, tail.Ver = view.Since(base)
	}
	tail.Ack = l.seen
	l.sent = tail.Ver
	return tail
}

// piggyback returns the gossip tail to embed in a push/reconcile payload
// from p to target, nil when piggybacking is off.
func (s *System) piggyback(p *Peer, target p2p.NodeID) *GossipTail {
	if !s.cfg.GossipPiggyback {
		return nil
	}
	tail := s.tailFor(p, target)
	return &tail
}

// absorbTail merges a received gossip tail into the view, updates the
// link's protocol state (the partner's version, their ack of ours, restart
// detection), and — for a first-hand gossip message — answers the sender
// once when this process holds strictly newer information (refuted claims
// about local nodes, or facts the sender has not heard yet).
func (s *System) absorbTail(p *Peer, from p2p.NodeID, tail *GossipTail, mayReply bool) {
	if tail == nil {
		return
	}
	l := p.link(from)
	if tail.Ver < l.seen {
		// The partner's version went backwards: it restarted with a fresh
		// view. Everything this link believed about the exchange is void —
		// re-baseline in both directions.
		l.seen, l.acked, l.sent = 0, 0, 0
	}
	view := s.net.Liveness()
	var newerLocal bool
	if tail.Full {
		_, newerLocal = view.Merge(tail.Entries)
	} else {
		_, newerLocal = view.MergeChanges(tail.Delta)
		// A delta brings this view up to the partner's Ver only relative to
		// the base the partner assumed; the Ack below tells them what that
		// was, and the periodic resync covers any residual divergence.
	}
	if tail.Ver > l.seen {
		l.seen = tail.Ver
	}
	if tail.Ack == 0 {
		// The partner has never merged anything of this view (or restarted):
		// the next tail to them must be a full snapshot.
		l.acked, l.sent = 0, 0
	} else if tail.Ack > l.acked {
		l.acked = tail.Ack
		if l.sent < l.acked {
			l.sent = l.acked
		}
	}
	if newerLocal && mayReply && s.net.Online(p.id) {
		s.net.SendNew(MsgGossip, p.id, from, 0,
			GossipPayload{Tail: s.tailFor(p, from), Reply: true})
	}
	// The merged tail may have brought the confirmed death of p's own
	// summary peer: run the proactive election from the partner that just
	// learned it (every precondition is re-checked inside).
	if s.cfg.ProactiveElection && p.role == RoleClient {
		if sp := p.curSP(); sp >= 0 && view.StateOf(int(sp)) == liveness.Dead {
			s.electSuccessor(p, sp)
		}
	}
}

// onGossip handles one anti-entropy exchange at the receiving peer.
func (p *Peer) onGossip(msg *p2p.Message) {
	pl := msg.Payload.(GossipPayload)
	p.sys.absorbTail(p, msg.From, &pl.Tail, !pl.Reply)
}

// regressGossip rewinds the sender's optimistic watermark toward a partner
// that did not receive a gossip-carrying message: the next tail on the
// link re-sends everything since the last acknowledged version (or a full
// snapshot when nothing was ever acknowledged). Runs from the drop
// callback, serialized with the sender's dispatch group.
func (s *System) regressGossip(msg *p2p.Message) {
	var tail *GossipTail
	switch pl := msg.Payload.(type) {
	case GossipPayload:
		tail = &pl.Tail
	case PushPayload:
		tail = pl.Gossip
	case ReconcilePayload:
		tail = pl.Gossip
	}
	if tail == nil {
		return
	}
	l := s.peers[msg.From].link(msg.To)
	if l.sent > l.acked {
		l.sent = l.acked
	}
}

// armGossip starts the periodic per-node gossip timers for the local nodes
// (idempotent; called at the end of Construct when GossipInterval is set).
func (s *System) armGossip() {
	if s.cfg.GossipInterval <= 0 || s.gossipArmed {
		return
	}
	s.gossipArmed = true
	for _, p := range s.peers {
		if p2p.IsLocal(s.net, p.id) {
			s.scheduleGossip(p)
		}
	}
}

// scheduleGossip arms one node's next periodic gossip. The timer re-arms
// itself, so a node that was offline at one tick resumes gossiping after a
// rejoin; Transport.Close cancels the chain.
func (s *System) scheduleGossip(p *Peer) {
	s.net.After(p.id, s.cfg.GossipInterval, func() {
		s.gossipFrom(p)
		s.scheduleGossip(p)
	})
}

// gossipFrom sends one gossip message from p to its next target. The tail
// is built per link: what one partner still needs differs from the next.
func (s *System) gossipFrom(p *Peer) {
	if !s.net.Online(p.id) {
		return
	}
	target := s.nextGossipTarget(p)
	if target < 0 {
		return
	}
	s.net.SendNew(MsgGossip, p.id, target, 0, GossipPayload{Tail: s.tailFor(p, target)})
}

// gossipProbeEvery makes every Nth gossip pick a probe: candidates come
// from the static topology (and the full known-SP list), ignoring the
// liveness view. The two sides of a healed partition hold each other
// dead-or-suspect, filter each other out of Neighbors, and would
// otherwise never exchange the gossip whose refutations reconverge the
// views — the probe is the keepalive that rediscovers them. A probe to a
// genuinely dead (or still-severed) target just drops, which re-files
// evidence the view already holds.
const gossipProbeEvery = 4

// nextGossipTarget picks the node's gossip partner: a deterministic round
// robin over its online neighbors — plus the other online summary peers for
// a summary peer, so liveness crosses domain borders — with every
// gossipProbeEvery'th tick probing the static topology instead (see
// gossipProbeEvery). Determinism matters: target choice must not consult
// a random source, or discrete-event runs would stop being reproducible.
func (s *System) nextGossipTarget(p *Peer) p2p.NodeID {
	tick := p.gossipTick
	p.gossipTick++
	var cands []p2p.NodeID
	if tick%gossipProbeEvery == gossipProbeEvery-1 {
		for _, nb := range s.net.Graph().Neighbors(int(p.id)) {
			cands = append(cands, p2p.NodeID(nb))
		}
		if p.role == RoleSummaryPeer {
			for _, sp := range p.knownSPs {
				if !containsID(cands, sp) {
					cands = append(cands, sp)
				}
			}
		}
	} else {
		cands = s.net.Neighbors(p.id)
		if p.role == RoleSummaryPeer {
			for _, sp := range p.knownSPs {
				if s.net.Online(sp) && !containsID(cands, sp) {
					cands = append(cands, sp)
				}
			}
		}
	}
	if len(cands) == 0 {
		return -1
	}
	return cands[tick%len(cands)]
}

func containsID(ids []p2p.NodeID, id p2p.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// GossipRound drives one liveness-gossip round from every online local node
// under a single Exec barrier. This is the entry point for the
// discrete-event transport, where periodic GossipInterval timers are
// rejected (the engine's run-to-quiescence Settle would chase the re-arming
// timer forever): experiment drivers schedule GossipRound at fixed virtual
// times instead, keeping runs deterministic. It also works as a manual
// flush on the concurrent transports.
func (s *System) GossipRound() {
	s.net.Exec(func() {
		for _, p := range s.peers {
			if p2p.IsLocal(s.net, p.id) {
				s.gossipFrom(p)
			}
		}
	})
}
