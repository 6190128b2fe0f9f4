package core

import (
	"p2psum/internal/liveness"
	"p2psum/internal/p2p"
	"p2psum/internal/wire"
)

// Freshness maintenance (§4.2): push-based modification notification
// (§4.2.1) and pull-based ring reconciliation gated by the threshold α
// (§4.2.2), plus the loss recovery the paper's reliable-link assumption
// leaves out: a retransmit timer restarts a ring whose token was dropped.

// MarkModified signals that the peer's local summary changed enough to
// invalidate its merged description (§4.2.1): a push with v = 1 travels to
// the summary peer. Runs under Exec so the summary-peer self-modification
// path never interleaves with handlers on a concurrent transport.
func (s *System) MarkModified(id p2p.NodeID) {
	s.net.Exec(func() { s.markModified(id) })
}

// MarkModifiedAll signals a whole wave of local-summary modifications
// under ONE Exec call. On a goroutine-backed transport every Exec is a
// round trip through the dispatcher's inbox, so batching a storm of
// modifications costs one round trip instead of one per peer — the pushes
// (and the ring reconciliations they trigger) then interleave across
// domains on the lane.
func (s *System) MarkModifiedAll(ids []p2p.NodeID) {
	s.net.Exec(func() {
		for _, id := range ids {
			s.markModified(id)
		}
	})
}

func (s *System) markModified(id p2p.NodeID) {
	p := s.peers[id]
	if !s.net.Online(id) {
		return
	}
	sp := p.SummaryPeer()
	if sp < 0 {
		return
	}
	s.addStat(func(st *Stats) { st.Pushes++ })
	if p.role == RoleSummaryPeer {
		// A summary peer's own modification feeds its own list.
		if p.cl.Has(p.id) {
			p.cl.Set(p.id, Stale)
			p.maybeReconcile()
		}
		return
	}
	s.net.SendNew(MsgPush, id, sp, 0, PushPayload{V: Stale, Gossip: s.piggyback(p, sp)})
}

// onPush updates the pushing partner's freshness value and checks the
// reconciliation trigger.
func (p *Peer) onPush(msg *p2p.Message) {
	pl := msg.Payload.(PushPayload)
	// Piggybacked liveness rides every push, partner or not.
	p.sys.absorbTail(p, msg.From, pl.Gossip, false)
	if p.role != RoleSummaryPeer || !p.cl.Has(msg.From) {
		return
	}
	v := pl.V
	if p.sys.cfg.Mode == TwoBit && v == Unavailable && p.sys.cfg.KeepUnavailable {
		// First alternative of §4.3: keep the descriptions and keep using
		// them for approximate answering; do not accelerate reconciliation.
		p.cl.Set(msg.From, Unavailable)
		return
	}
	p.cl.Set(msg.From, v)
	p.maybeReconcile()
}

// maybeReconcile starts a ring reconciliation when Σv/|CL| >= α (§4.2.2).
func (p *Peer) maybeReconcile() {
	if p.role != RoleSummaryPeer || p.reconciling {
		return
	}
	if p.cl.Len() == 0 || p.cl.StaleFraction() < p.sys.cfg.Alpha {
		return
	}
	p.reconciling = true
	p.retriesLeft = reconcileRetries
	p.startRing()
}

// startRing launches a fresh ring generation: a new empty global summary
// circulates the online partners, each merging its local summary in, and a
// loss timer is armed so a silently dropped token cannot leave the summary
// peer reconciling forever.
func (p *Peer) startRing() {
	p.reconcileSeq++
	remaining := p.onlinePartners()
	p.armReconcileTimer(len(remaining))
	pl := &ReconcilePayload{SP: p.id, Seq: p.reconcileSeq, NewGS: p.sys.newTree(),
		Remaining: remaining, idBytes: wire.VarintsLen(remaining)}
	p.forwardReconcile(pl)
}

// reconcileRetries bounds consecutive retransmits of one reconciliation;
// when they are spent the summary peer abandons the round (the next push
// re-triggers it).
const reconcileRetries = 3

// armReconcileTimer schedules the loss timeout for the current ring
// generation: the configured base (0 = the 30 s default; negative disables
// recovery) plus a per-partner allowance, since the token makes one hop per
// online partner. The callback runs serialized with handlers (Transport
// contract) and no-ops when the generation already completed.
func (p *Peer) armReconcileTimer(ringLen int) {
	timeout := p.sys.cfg.ReconcileTimeout
	if timeout < 0 {
		return
	}
	if timeout == 0 {
		timeout = 30
	}
	seq := p.reconcileSeq
	// The summary peer owns the timer: the callback mutates its ring
	// state, so it must run serialized with its handlers.
	p.sys.net.After(p.id, timeout+0.5*float64(ringLen), func() { p.onReconcileTimeout(seq) })
}

// onReconcileTimeout fires when ring generation seq has been in flight for
// the full timeout: the token is presumed lost (§4.2.2 assumes reliable
// links; lossy transports drop it silently). While the retry budget lasts
// the ring restarts with a fresh generation — stale tokens of the old one
// are ignored by their Seq — and afterwards the round is abandoned so the
// next push can re-trigger reconciliation.
func (p *Peer) onReconcileTimeout(seq int) {
	if !p.reconciling || p.reconcileSeq != seq {
		return // the ring completed, or a newer generation superseded it
	}
	if !p.sys.net.Online(p.id) {
		// The summary peer itself departed mid-ring (§4.3): the round dies
		// with it instead of retransmitting from beyond the grave. Clearing
		// the flag lets a returning summary peer reconcile again.
		p.reconciling = false
		return
	}
	if p.retriesLeft <= 0 {
		p.reconciling = false
		p.sys.addStat(func(st *Stats) { st.ReconcileAborts++ })
		return
	}
	p.retriesLeft--
	p.sys.addStat(func(st *Stats) { st.ReconcileRetransmits++ })
	p.startRing()
}

// onlinePartners returns the CL partners currently online, in ring order.
func (p *Peer) onlinePartners() []p2p.NodeID {
	var out []p2p.NodeID
	for _, id := range p.cl.ids {
		if p.sys.net.Online(id) {
			out = append(out, id)
		}
	}
	return out
}

// forwardReconcile sends the reconciliation token to the next online
// partner in pl.Remaining, or back to the summary peer when the ring is
// exhausted. Every id popped — the recipient, or an offline partner
// skipped — leaves the token's running id-list count with it.
//
// The token travels by pointer and whoever holds it owns it: the sender
// gives it up with the send, and touches it again only if it comes back
// through the drop callback.
func (p *Peer) forwardReconcile(pl *ReconcilePayload) {
	for len(pl.Remaining) > 0 {
		next := pl.Remaining[0]
		pl.idBytes -= wire.VarintsLen(pl.Remaining[:1])
		pl.Remaining = pl.Remaining[1:]
		if p.sys.net.Online(next) {
			// Each hop rebuilds the piggybacked liveness tail for its own
			// target (nil when off): what one partner still needs differs
			// from the next.
			pl.Gossip = p.sys.piggyback(p, next)
			p.sys.net.SendNew(MsgReconcile, p.id, next, 0, pl)
			return
		}
	}
	// Ring exhausted: hand the new version to the summary peer.
	pl.Remaining = nil
	if p.id == pl.SP {
		// Degenerate ring (no online partner): complete synchronously.
		pl.Gossip = nil
		p.completeReconcile(pl)
		return
	}
	pl.Gossip = p.sys.piggyback(p, pl.SP)
	p.sys.net.SendNew(MsgReconcile, p.id, pl.SP, 0, pl)
}

// onReconcile is executed by each partner on the ring, and by the summary
// peer when the token returns.
func (p *Peer) onReconcile(msg *p2p.Message) {
	pl := msg.Payload.(*ReconcilePayload)
	p.sys.absorbTail(p, msg.From, pl.Gossip, false)
	if p.role == RoleSummaryPeer && p.id == pl.SP {
		p.completeReconcile(pl)
		return
	}
	// Partner: merge the current local summary into the new version, then
	// pass the token on (§4.2.2 distributes the merge work over partners).
	if p.sys.cfg.DataLevel && pl.NewGS != nil && p.local != nil {
		if err := pl.NewGS.Merge(p.local); err != nil {
			// Incompatible local summary: skip its contribution.
			_ = err
		}
	}
	pl.Merged = append(pl.Merged, p.id)
	pl.idBytes += wire.VarintsLen(pl.Merged[len(pl.Merged)-1:])
	p.forwardReconcile(pl)
}

// completeReconcile installs the rebuilt global summary and resets the
// freshness values. The install goes through the store, which swaps only
// the shards whose leaves changed (per-shard deltas), so concurrent
// readers are never stalled on the whole summary; a one-shard store takes
// the new version itself as its tree — the paper's one whole-tree update
// operation — unless its leaves are unchanged. Tokens of a superseded ring
// generation (retransmit already launched a newer one) are dropped.
func (p *Peer) completeReconcile(pl *ReconcilePayload) {
	if !p.reconciling || pl.Seq != p.reconcileSeq {
		return // stale token: a retransmitted ring owns this round now
	}
	if p.sys.cfg.DataLevel {
		newGS := pl.NewGS
		if newGS == nil {
			newGS = p.sys.newTree()
		}
		if p.local != nil {
			// The summary peer's own data belongs to the domain too.
			if err := newGS.Merge(p.local); err != nil {
				_ = err
			}
		}
		swapped := p.gs.SwapFrom(newGS)
		if p.sys.OnInstall != nil {
			p.sys.OnInstall(p.id, swapped)
		}
	}
	// Partners that did not participate because they are confirmed gone
	// are omitted from the new version: their descriptions are gone, so
	// their entries leave the cooperation list (§4.3 second alternative).
	// A merely *suspected* partner keeps its seat as Stale — a partition
	// is an unconfirmed suspicion, and evicting on it would sever the
	// member for good (pushes from non-partners are ignored, so there
	// would be no way back after the heal). If the suspicion confirms,
	// the next ring evicts it then.
	view := p.sys.net.Liveness()
	p.cl.settle(pl.Merged, func(id p2p.NodeID) bool {
		return p.sys.net.Online(id) || view.StateOf(int(id)) == liveness.Suspect
	})
	p.reconciling = false
	p.sys.addStat(func(st *Stats) { st.Reconciliations++ })
	if p.sys.OnReconcile != nil {
		p.sys.OnReconcile(p.id, pl.Merged)
	}
}
