package core

import (
	"p2psum/internal/liveness"
	"p2psum/internal/p2p"
)

// Peer dynamicity (§4.3): joins, graceful leaves, silent failures,
// summary-peer departures, and the failure-detection paths driven by
// dropped messages.

// onRelease reacts to a departing summary peer: elect a successor when
// proactive re-election is on (the graceful goodbye marks the departing
// peer Dead, so the election preconditions hold), find a new domain
// otherwise (§4.3).
func (p *Peer) onRelease(msg *p2p.Message) {
	if p.curSP() != msg.From {
		return
	}
	if p.sys.cfg.ProactiveElection {
		p.sys.electSuccessor(p, msg.From)
		return
	}
	p.clearSP()
	p.sys.findDomain(p)
}

// Leave disconnects a peer. A graceful client pushes its departure first
// (v=2 in two-bit mode, folded to 1 in one-bit); a graceful summary peer
// releases its partners. A non-graceful leave is a silent failure (§4.3).
// The body runs under Exec: on a concurrent transport the state writes
// must not interleave with handlers.
func (s *System) Leave(id p2p.NodeID, graceful bool) {
	s.net.Exec(func() { s.leave(id, graceful) })
}

func (s *System) leave(id p2p.NodeID, graceful bool) {
	p := s.peers[id]
	if !s.net.Online(id) {
		return
	}
	if graceful {
		if p.role == RoleSummaryPeer {
			s.addStat(func(st *Stats) { st.SPDepartures++ })
			for _, partner := range p.cl.Partners() {
				s.net.SendNew(MsgRelease, id, partner, 0, nil)
			}
		} else if sp := p.curSP(); sp >= 0 {
			s.addStat(func(st *Stats) { st.GracefulLeaves++ })
			s.net.SendNew(MsgPush, id, sp, 0, PushPayload{V: Unavailable, Gossip: s.piggyback(p, sp)})
		}
		// The peer said goodbye: its liveness entry goes straight to Dead.
		s.net.SetOnline(id, false)
	} else {
		// Silent failure (§4.3): no authoritative goodbye, so the liveness
		// view runs the suspicion state machine — Suspect now (offline for
		// every protocol purpose), Dead once the confirmation timer fires,
		// Alive again if the peer rejoins first.
		s.addStat(func(st *Stats) { st.Failures++ })
		s.suspect(id)
	}
	if p.role == RoleClient {
		p.clearSP()
	}
}

// Join reconnects a peer (§4.3): it contacts its neighbors; if one of them
// is a partner, it adopts that neighbor's summary peer (freshness 1 —
// "the need of pulling peer p to get new data descriptions"); otherwise it
// walks. Runs under Exec, like Leave.
func (s *System) Join(id p2p.NodeID) {
	s.net.Exec(func() { s.join(id) })
}

func (s *System) join(id p2p.NodeID) {
	p := s.peers[id]
	if s.net.Online(id) {
		return
	}
	s.net.SetOnline(id, true)
	s.addStat(func(st *Stats) { st.Joins++ })
	if p.role == RoleSummaryPeer {
		return // returning summary peers resume their role
	}
	p.clearSP()
	for _, nb := range s.net.Neighbors(id) {
		o := s.peers[nb]
		if o.role == RoleSummaryPeer {
			p.adopt(nb, 1)
			return
		}
		if osp := o.curSP(); osp >= 0 && s.net.Online(osp) {
			p.adopt(osp, o.curSPHops()+1)
			return
		}
	}
	s.findDomain(p)
}

// onDrop reacts to messages lost to offline receivers, implementing the
// failure-detection paths of §4.3. The transport runs it serialized with
// the handlers of msg.From's dispatch group (every mutation below touches
// the sender's state), so it needs no extra locking even when dispatch is
// sharded.
func (s *System) onDrop(msg *p2p.Message) {
	// Every drop is indirect liveness evidence about the destination. On
	// the in-memory transports the shared view already holds the node
	// non-alive (that is why the message dropped), so this is a no-op; on
	// TCP it is how a process suspects a remote node — or a whole remote
	// process — that died without a goodbye (drop echoes, dead
	// connections, failed dials). Only with gossip on: without a
	// refutation channel a single transient drop would mark a healthy
	// remote node dead with no way back (the pre-liveness behavior —
	// remote nodes online unless flipped locally — is kept otherwise).
	if s.gossipEnabled() {
		s.suspect(msg.To)
		// A gossip tail died with the message: rewind the link's optimistic
		// watermark so the next tail re-covers what the drop lost.
		s.regressGossip(msg)
	}
	switch msg.Type {
	case MsgPush, MsgLocalsum:
		// The partner detects its summary peer's failure and searches for
		// a new one — or, with proactive re-election on, elects a
		// successor (a not-yet-confirmed suspicion makes the election a
		// no-op; the confirmation timer re-runs it via onConfirmedDead).
		p := s.peers[msg.From]
		if p.role == RoleClient && s.net.Online(p.id) && p.curSP() == msg.To {
			if s.cfg.ProactiveElection {
				s.electSuccessor(p, msg.To)
			} else {
				p.clearSP()
				s.findDomain(p)
			}
		}
	case MsgReconcile:
		pl := msg.Payload.(ReconcilePayload)
		if msg.To == pl.SP {
			// The summary peer itself is gone: the round dies with the
			// token instead of ping-ponging between the resend and this
			// drop handler forever. Partners detect the departure through
			// their own dropped pushes (§4.3).
			return
		}
		// The ring token hit a partner that disconnected in flight: the
		// sender skips it and forwards to the rest of the ring. The
		// recipient already left Remaining and the id-list count when
		// the token was sent, so the count is consistent as it stands.
		sender := s.peers[msg.From]
		sender.forwardReconcile(pl)
	case MsgElect:
		// A lost proposal clears the dedupe marker so the next trigger
		// (another absorbed tail, the confirmation nudge) retries it.
		p := s.peers[msg.From]
		if pl, ok := msg.Payload.(ElectPayload); ok && p.electProposed == pl.Dead {
			p.electProposed = -1
		}
	}
}

// DomainOf returns the summary peer governing a node, or -1.
func (s *System) DomainOf(id p2p.NodeID) p2p.NodeID { return s.peers[id].SummaryPeer() }

// DomainMembers returns the online members of a summary peer's domain
// (§3.1: "a domain is the set of a superpeer and its clients"), the summary
// peer first. Membership is read from the liveness view — each node's own
// domain claim, spread by gossip — not from the local cooperation list, so
// every process of a TCP deployment reports the same set once the views
// converge. The view is read once, as one snapshot.
func (s *System) DomainMembers(sp p2p.NodeID) []p2p.NodeID {
	p := s.peers[sp]
	if p.role != RoleSummaryPeer {
		return nil
	}
	out := []p2p.NodeID{sp}
	for id, e := range s.net.Liveness().Snapshot() {
		if p2p.NodeID(id) != sp && e.State == liveness.Alive && e.SP == int(sp) {
			out = append(out, p2p.NodeID(id))
		}
	}
	return out
}

// domainSizes counts every domain's online members (DomainMembers' length
// per summary peer) in one pass over one view snapshot. Index sp holds the
// count of the members other than sp itself.
func (s *System) domainSizes() []int {
	entries := s.net.Liveness().Snapshot()
	sizes := make([]int, len(entries))
	for id, e := range entries {
		if id != e.SP && e.State == liveness.Alive && e.SP >= 0 && e.SP < len(sizes) {
			sizes[e.SP]++
		}
	}
	return sizes
}

// Coverage returns the fraction of online peers that currently belong to a
// domain (the paper's summary Coverage, Definition 4 context), computed
// from one snapshot of the liveness view so all processes of a deployment
// agree.
func (s *System) Coverage() float64 {
	online, covered := 0, 0
	for _, e := range s.net.Liveness().Snapshot() {
		if e.State != liveness.Alive {
			continue
		}
		online++
		if e.SP != liveness.NoSP {
			covered++
		}
	}
	if online == 0 {
		return 0
	}
	return float64(covered) / float64(online)
}
