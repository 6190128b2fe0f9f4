package core

import (
	"sort"

	"p2psum/internal/liveness"
	"p2psum/internal/p2p"
)

// Proactive summary-peer re-election (§4.3 extension): when the liveness
// view confirms a domain's summary peer Dead, the surviving partners do
// not scatter into independent find walks — they elect a deterministic
// successor from among themselves. Every partner computes the same
// winner from its own view (highest static degree, ties to the lower id,
// the §4.1 election criterion applied to the orphaned domain), so the
// protocol needs no coordinator: the winner promotes itself, everyone
// else proposes to the winner, and the promoted successor announces the
// result to the surviving members, who re-adopt like a §4.1 sumpeer.
//
// Determinism contract: Successor reads only the liveness view and the
// static topology, both of which converge identically across processes
// and dispatch layouts, so runs with different dispatcher counts or
// region shardings elect bit-identical successors. The whole feature is
// gated by Config.ProactiveElection (default off: the paper's baseline
// reaction to a dead summary peer is the find walk).

// ElectPayload carries one re-election step. A proposal names the
// receiver as Successor; the promoted successor's announcement names the
// sender. Both directions carry the dead summary peer so stale exchanges
// about an earlier death are ignored.
type ElectPayload struct {
	// Dead is the departed summary peer whose domain is being repaired.
	Dead p2p.NodeID
	// Successor is the nominated (proposal) or promoted (announcement)
	// replacement.
	Successor p2p.NodeID
}

// Successor computes the deterministic successor for a dead summary
// peer: the highest-degree online member of its domain (nodes whose view
// claim names dead), ties breaking on the lower id; -1 when no member
// survives. Reads only the view and static degrees, so converged
// processes agree on the winner.
func (s *System) Successor(dead p2p.NodeID) p2p.NodeID {
	view := s.net.Liveness()
	best, bestDeg := p2p.NodeID(-1), -1
	for id := 0; id < view.Len(); id++ {
		nid := p2p.NodeID(id)
		if nid == dead || !view.Online(id) || view.SPOf(id) != int(dead) {
			continue
		}
		// Ascending scan: the first node at the top degree wins ties.
		if d := s.net.Degree(nid); d > bestDeg {
			best, bestDeg = nid, d
		}
	}
	return best
}

// electedSuccessor returns the successor this process has recorded for
// dead (promoted here, or learned from an announcement).
func (s *System) electedSuccessor(dead p2p.NodeID) (p2p.NodeID, bool) {
	s.electMu.Lock()
	defer s.electMu.Unlock()
	succ, ok := s.elected[dead]
	return succ, ok
}

// recordElected registers succ as dead's successor unless one is already
// recorded, and returns the winning record. The first writer wins: a
// concurrent second promotion attempt loses the race here and backs off.
func (s *System) recordElected(dead, succ p2p.NodeID) p2p.NodeID {
	s.electMu.Lock()
	defer s.electMu.Unlock()
	if s.elected == nil {
		s.elected = make(map[p2p.NodeID]p2p.NodeID)
	}
	if w, ok := s.elected[dead]; ok {
		return w
	}
	s.elected[dead] = succ
	return succ
}

// forgetElected drops a stale record (the recorded successor is itself
// gone), so the next trigger elects afresh.
func (s *System) forgetElected(dead, succ p2p.NodeID) {
	s.electMu.Lock()
	defer s.electMu.Unlock()
	if s.elected[dead] == succ {
		delete(s.elected, dead)
	}
}

// electSuccessor runs the partner side of the election for p, a client
// whose summary peer dead the view has confirmed gone: attach to an
// already-resolved successor, promote self if the deterministic choice
// is p, propose to the winner otherwise, and fall back to the §4.3 find
// walk when the domain died with its summary peer. Callers may invoke it
// speculatively — every precondition is re-checked, and a
// not-yet-confirmed death returns without acting (the confirmation timer
// re-runs the election via onConfirmedDead).
func (s *System) electSuccessor(p *Peer, dead p2p.NodeID) {
	if !s.cfg.ProactiveElection || p.role != RoleClient || p.curSP() != dead || !s.net.Online(p.id) {
		return
	}
	view := s.net.Liveness()
	if view.StateOf(int(dead)) != liveness.Dead {
		return // suspicion not confirmed: a transient outage must not mint a summary peer
	}
	if pl := p.pendingElect; pl != nil && pl.Dead == dead {
		// An announcement raced ahead of the death gossip and was parked;
		// the death is confirmed here now, so re-validate it against the
		// view (same guards as a live announcement) and adopt.
		if view.Online(int(pl.Successor)) && view.SPOf(int(pl.Successor)) == int(pl.Successor) {
			p.pendingElect = nil
			s.recordElected(dead, pl.Successor)
			p.electProposed = -1
			p.adopt(pl.Successor, s.hopsTo(p.id, pl.Successor))
			return
		}
	}
	if succ, ok := s.electedSuccessor(dead); ok {
		// The election already resolved in this process: attach to the
		// recorded successor instead of re-running it (re-evaluating now
		// would exclude the promoted successor from the candidates and
		// cascade into a second promotion).
		if succ == p.id {
			return // this node is the successor; promotion already ran
		}
		if view.Online(int(succ)) && view.SPOf(int(succ)) == int(succ) {
			p.electProposed = -1
			p.adopt(succ, s.hopsTo(p.id, succ))
			return
		}
		s.forgetElected(dead, succ) // the successor died too: elect afresh
	}
	succ := s.Successor(dead)
	if succ < 0 {
		// The domain died with its summary peer: walk for a new one.
		p.clearSP()
		s.findDomain(p)
		return
	}
	if succ == p.id {
		if s.recordElected(dead, p.id) == p.id {
			s.promote(p, dead)
		}
		return
	}
	if p.electProposed == dead {
		return // proposal already in flight (a drop clears this for retry)
	}
	p.electProposed = dead
	s.net.SendNew(MsgElect, p.id, succ, 0, ElectPayload{Dead: dead, Successor: succ})
}

// onElect handles one re-election message at the receiving peer: a
// proposal nominating this node — verified against the local view before
// promoting, so a forged or stale nomination cannot mint a summary peer
// — or the promoted successor's announcement, adopted like a §4.1
// sumpeer (the re-adoption ships the member's local summary, and the
// next reconciliation rebuilds the domain's global summary).
func (p *Peer) onElect(msg *p2p.Message) {
	pl, ok := msg.Payload.(ElectPayload)
	if !ok {
		return
	}
	s := p.sys
	if !s.cfg.ProactiveElection || !s.net.Online(p.id) {
		return
	}
	view := s.net.Liveness()
	switch {
	case pl.Successor == p.id && msg.From != p.id:
		// Proposal addressed to this node.
		if view.StateOf(int(pl.Dead)) != liveness.Dead {
			return // not confirmed here: the proposer's view lags or lies
		}
		if p.role == RoleSummaryPeer {
			// Already promoted (an earlier proposal, or our own trigger):
			// repeat the announcement the late proposer is waiting for.
			s.net.SendNew(MsgElect, p.id, msg.From, 0, ElectPayload{Dead: pl.Dead, Successor: p.id})
			return
		}
		if p.curSP() != pl.Dead || s.Successor(pl.Dead) != p.id {
			return // not this node's election to win
		}
		if s.recordElected(pl.Dead, p.id) != p.id {
			return // another successor resolved first; its announcement travels
		}
		s.promote(p, pl.Dead)
	case pl.Successor == msg.From:
		// Announcement from the promoted successor. Verified against the
		// view before adopting: the old summary peer must really be gone
		// and the announcer must really claim its own domain, so a forged
		// announcement can neither hijack a live domain nor attach members
		// to a node that never promoted.
		if p.role != RoleClient || p.curSP() != pl.Dead {
			return
		}
		if view.StateOf(int(pl.Dead)) == liveness.Alive ||
			!view.Online(int(pl.Successor)) || view.SPOf(int(pl.Successor)) != int(pl.Successor) {
			// The announcement outran the gossip that justifies it (on a TCP
			// deployment the direct MsgElect can beat the death and
			// self-claim entries across the wire). Park it: electSuccessor
			// re-validates the parked announcement — same guards, against
			// the converged view — once the death reaches this process, so
			// a forged announcement gains nothing from being parked.
			p.pendingElect = &pl
			return
		}
		p.pendingElect = nil
		s.recordElected(pl.Dead, pl.Successor)
		p.electProposed = -1
		p.adopt(pl.Successor, s.hopsTo(p.id, pl.Successor))
	}
}

// promote turns p into the summary peer of dead's orphaned domain:
// summary-peer state is wired exactly like AssignSummaryPeers builds it
// (empty store — the first reconciliation folds every local summary in,
// the summary peer's own included), the view records the self-claim so
// every process sees the new domain, and the result is announced to the
// surviving members so they re-adopt.
func (s *System) promote(p *Peer, dead p2p.NodeID) {
	p.role = RoleSummaryPeer
	p.clearSP()
	p.electProposed = -1
	s.net.Liveness().SetSP(int(p.id), int(p.id))
	p.cl = NewCooperationList(s.cfg.Mode)
	p.gs = s.newStore()
	view := s.net.Liveness()
	// The long-range links: every self-claimer in the view is a summary
	// peer (the dead one included — if it rejoins it resumes its role).
	var known []p2p.NodeID
	for id := 0; id < view.Len(); id++ {
		if id != int(p.id) && view.SPOf(id) == id {
			known = append(known, p2p.NodeID(id))
		}
	}
	p.knownSPs = known
	s.statsMu.Lock()
	s.stats.Elections++
	s.sps = append(s.sps, p.id)
	sort.Slice(s.sps, func(i, j int) bool { return s.sps[i] < s.sps[j] })
	s.statsMu.Unlock()
	// The other local summary peers learn the new colleague; knownSPs is
	// owner-serialized state, so each update runs in its owner's group.
	for _, o := range s.peers {
		if o != p && o.role == RoleSummaryPeer && p2p.IsLocal(s.net, o.id) {
			o := o
			s.afterFrom(p.id, o.id, 0, func() {
				if !containsID(o.knownSPs, p.id) {
					o.knownSPs = append(o.knownSPs, p.id)
				}
			})
		}
	}
	// Announce to the surviving members of the orphaned domain (local and
	// remote alike — the transport carries MsgElect across processes).
	for id := 0; id < view.Len(); id++ {
		nid := p2p.NodeID(id)
		if nid != p.id && nid != dead && view.Online(id) && view.SPOf(id) == int(dead) {
			s.net.SendNew(MsgElect, p.id, nid, 0, ElectPayload{Dead: dead, Successor: p.id})
		}
	}
}

// onConfirmedDead reacts to a suspicion confirming Dead. Two duties:
// local summary peers evict the confirmed-dead node from their
// cooperation lists (reconciliation holds a merely-suspected partner's
// seat as Stale, so the confirmation is where the §4.3 eviction actually
// lands), and — with proactive election on — if the departed node was a
// summary peer, every local surviving member of its domain runs the
// election. Both run deferred into the owning node's dispatch group,
// since they mutate that node's state.
func (s *System) onConfirmedDead(dead p2p.NodeID) {
	// The caller is the confirmation timer, which runs in dead's dispatch
	// group: dead is the origin for the cross-group handoffs below.
	//
	//
	// Only summary peers hold cooperation lists, so the eviction goes to
	// the roster alone: O(summary peers) events per confirmation. Roles
	// only ever move client -> summary peer and every promotion lands in
	// s.sps (under statsMu, possibly from another dispatch group's
	// election), so a snapshot taken here names every peer that can hold
	// dead now. A peer promoted after the snapshot but before the
	// eviction fires starts from an empty CooperationList and gains
	// members only through messages, which have positive latency — it
	// cannot hold dead by then.
	s.statsMu.Lock()
	sps := append([]p2p.NodeID(nil), s.sps...)
	s.statsMu.Unlock()
	for _, id := range sps {
		if !p2p.IsLocal(s.net, id) {
			continue
		}
		o := s.peers[id]
		s.afterFrom(dead, id, 0, func() {
			if o.role == RoleSummaryPeer && o.cl.Has(dead) && !s.net.Online(dead) {
				o.cl.Remove(dead)
			}
		})
	}
	if !s.cfg.ProactiveElection {
		return
	}
	view := s.net.Liveness()
	if view.SPOf(int(dead)) != int(dead) {
		return // not a summary peer: partners have nothing to elect
	}
	for id := 0; id < view.Len(); id++ {
		nid := p2p.NodeID(id)
		if nid == dead || !p2p.IsLocal(s.net, nid) || !view.Online(id) || view.SPOf(id) != int(dead) {
			continue
		}
		partner := s.peers[nid]
		s.afterFrom(dead, nid, 0, func() { s.electSuccessor(partner, dead) })
	}
}

// afterFrom schedules fn in owner's dispatch group from code executing
// in origin's group, staging cross-region on transports that need it
// (OriginScheduler) and falling back to After elsewhere.
func (s *System) afterFrom(origin, owner p2p.NodeID, delaySeconds float64, fn func()) {
	if os, ok := s.net.(p2p.OriginScheduler); ok {
		os.AfterFrom(origin, owner, delaySeconds, fn)
		return
	}
	s.net.After(owner, delaySeconds, fn)
}
