package core

import (
	"sort"

	"p2psum/internal/liveness"
	"p2psum/internal/p2p"
)

// Proactive summary-peer re-election (§4.3 extension): when the liveness
// view confirms a domain's summary peer Dead, the surviving partners do
// not scatter into independent find walks — they elect a deterministic
// successor from among themselves. The election is a function of the
// liveness view alone and has no message of its own:
//
//   - every member computes the same winner (Successor: highest static
//     degree, ties to the lower id — the §4.1 election criterion applied
//     to the orphaned domain);
//   - the winner promotes itself, and its self-claim carries the
//     successor mark naming the dead summary peer (liveness.View.Succeed);
//   - every other member adopts the winner once that marked claim is in
//     its view, re-adopting like a §4.1 sumpeer.
//
// The mark keeps the winner in the candidate set after its claim moves
// off the dead peer, and adopters that leave the set never held the
// maximum, so the winner cannot change while the election runs — however
// the claims of one process reach another.
//
// Determinism contract: Successor reads only the liveness view and the
// static topology, both of which converge identically across processes,
// so every process elects the same successor. The whole feature is gated
// by Config.ProactiveElection (default off: the paper's baseline reaction
// to a dead summary peer is the find walk).

// Successor computes the deterministic successor for a dead summary peer:
// among its candidates — the online nodes whose view claim names dead,
// the online nodes whose self-claim carries the successor mark for dead,
// and the remote nodes this view has not heard of yet — the
// highest-degree one, ties breaking on the lower id; -1 when there is no
// candidate. Reads one view snapshot and static degrees, so converged
// processes agree on the winner.
//
// An unheard node (a remote entry still at its initial record) may be a
// member whose claim is on its way, so it stays a candidate until its
// record arrives: a process that confirms the death before it has heard
// of the other processes' members waits rather than promoting a member of
// its own.
func (s *System) Successor(dead p2p.NodeID) p2p.NodeID {
	view := s.net.Liveness()
	best, bestDeg := p2p.NodeID(-1), -1
	for id, e := range view.Snapshot() {
		nid := p2p.NodeID(id)
		if nid == dead || e.State != liveness.Alive {
			continue
		}
		unheard := e == liveness.Entry{SP: liveness.NoSP} && !view.Local(id)
		if e.SP != int(dead) && e.Succeeds() != int(dead) && !unheard {
			continue
		}
		// Ascending scan: the first node at the top degree wins ties.
		if d := s.net.Degree(nid); d > bestDeg {
			best, bestDeg = nid, d
		}
	}
	return best
}

// electSuccessor runs the election for p, a client whose summary peer
// dead the view has confirmed gone: promote self if the deterministic
// winner is p, adopt the winner once its marked claim is in the view,
// wait otherwise, and fall back to the §4.3 find walk when the domain
// died with its summary peer. Callers may invoke it speculatively — every
// precondition is re-checked, and a not-yet-confirmed death returns
// without acting (the confirmation re-runs the election via repairOrphans).
func (s *System) electSuccessor(p *Peer, dead p2p.NodeID) {
	if !s.cfg.ProactiveElection || p.role != RoleClient || p.curSP() != dead || !s.net.Online(p.id) {
		return
	}
	view := s.net.Liveness()
	if view.StateOf(int(dead)) != liveness.Dead {
		return // suspicion not confirmed: a transient outage must not mint a summary peer
	}
	switch w := s.Successor(dead); {
	case w < 0:
		// The domain died with its summary peer: walk for a new one.
		p.clearSP()
		s.findDomain(p)
	case w == p.id:
		s.promote(p, dead)
	case view.EntryOf(int(w)).Succeeds() == int(dead):
		p.adopt(w, s.hopsTo(p.id, w))
	}
	// Otherwise the winner has not promoted (or not been heard of) yet: its
	// record re-runs the election here when it reaches this view
	// (repairOrphans).
}

// promote turns p into the summary peer of dead's orphaned domain:
// summary-peer state is wired exactly like AssignSummaryPeers builds it
// (empty store — the first reconciliation folds every local summary in,
// the summary peer's own included), and the view records the marked
// self-claim so every process sees the new domain and whom it replaces.
// The local members adopt at once; remote ones when the claim's gossip
// reaches them.
func (s *System) promote(p *Peer, dead p2p.NodeID) {
	p.role = RoleSummaryPeer
	p.sp.Store(-1)
	view := s.net.Liveness()
	view.Succeed(int(p.id), int(dead))
	p.cl = NewCooperationList(s.cfg.Mode)
	p.gs = s.newStore()
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
	// owner-serialized state, so each update runs as a timer the owner
	// holds.
	for _, o := range s.peers {
		if o != p && o.role == RoleSummaryPeer && p2p.IsLocal(s.net, o.id) {
			o := o
			s.net.After(o.id, 0, func() {
				if !containsID(o.knownSPs, p.id) {
					o.knownSPs = append(o.knownSPs, p.id)
				}
			})
		}
	}
	s.repairOrphans()
}

// repairOrphans runs the election at every local online node whose view
// claim names a confirmed-dead node, each deferred onto the transport's
// serialized lane as a zero-delay timer owned by the member, since it
// mutates that member's state; Settle waits for such timers on every
// transport. Three events call it, each of which can move an
// election: this process confirming a death, a gossip merge that changed
// the view (a death, a successor's marked claim, a candidate going
// offline, a member first heard of), and a local promotion. Only with
// proactive election on, so the merge path of a run without it does no
// extra work.
func (s *System) repairOrphans() {
	if !s.cfg.ProactiveElection {
		return
	}
	entries := s.net.Liveness().Snapshot()
	for id, e := range entries {
		nid := p2p.NodeID(id)
		if e.State != liveness.Alive || e.SP < 0 || e.SP == id || e.SP >= len(entries) ||
			entries[e.SP].State != liveness.Dead || !p2p.IsLocal(s.net, nid) {
			continue
		}
		member, dead := s.peers[nid], p2p.NodeID(e.SP)
		s.net.After(nid, 0, func() { s.electSuccessor(member, dead) })
	}
}

// onConfirmedDead reacts to a suspicion confirming Dead. Two duties:
// local summary peers evict the confirmed-dead node from their
// cooperation lists (reconciliation holds a merely-suspected partner's
// seat as Stale, so the confirmation is where the §4.3 eviction actually
// lands), and — with proactive election on — the elections the death
// moves run (repairOrphans): the departed summary peer's, or the one the
// departed node was a candidate in. The evictions run deferred onto the
// transport's serialized lane as timers owned by the node, since they
// mutate that node's state.
func (s *System) onConfirmedDead(dead p2p.NodeID) {
	// Only summary peers hold cooperation lists, so the eviction goes to
	// the roster alone: O(summary peers) events per confirmation. Roles
	// only ever move client -> summary peer and every promotion lands in
	// s.sps (under statsMu, which driver goroutines read beside the
	// lane), so a snapshot taken here names every peer that can hold
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
		s.net.After(id, 0, func() {
			if o.role == RoleSummaryPeer && o.cl.Has(dead) && !s.net.Online(dead) {
				o.cl.Remove(dead)
			}
		})
	}
	s.repairOrphans()
}
