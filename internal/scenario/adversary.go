package scenario

import (
	"p2psum/internal/core"
	"p2psum/internal/liveness"
	"p2psum/internal/p2p"
)

// Adversary injects adversarial membership claims into the liveness
// gossip from a compromised overlay node: forged obituaries and
// conflicting domain claims. Every injection is a regular MsgGossip frame
// sent through the transport — it is counted, byte-charged, and handled
// exactly like honest gossip, so the defense being measured is the
// protocol's own (incarnation supersession plus local-authority
// refutation, internal/liveness), not a special case.
//
// Injections are marked Reply:true, so the victim never answers the
// adversary directly (one-shot poison, no handshake); whatever damage the
// forged claims do — and whatever refutation corrects them — spreads
// through the victim's own subsequent gossip.
type Adversary struct {
	sys *core.System
	src p2p.NodeID
	// ver fabricates ever-growing view versions so consecutive
	// injections on one link are not discarded as sender restarts.
	ver uint64
}

// NewAdversary compromises src: injections will carry its node id as the
// gossip sender. The stack is the process whose transport carries the
// forged frames (for an in-memory overlay, the only stack).
func NewAdversary(sys *core.System, src p2p.NodeID) *Adversary {
	return &Adversary{sys: sys, src: src, ver: 1 << 20}
}

// ForgeDeath injects a forged obituary at target: a gossip delta claiming
// victim Dead at one incarnation beyond what the adversary's view holds —
// a superseding, well-formed claim that an honest merge would adopt. If
// victim is local to the target's process, the local-authority guard
// refutes it on merge; otherwise it sticks until victim's host process
// gossips a higher incarnation.
func (a *Adversary) ForgeDeath(target, victim p2p.NodeID) {
	e := a.sys.Transport().Liveness().EntryOf(int(victim))
	a.inject(target, []liveness.Change{{
		ID: int(victim),
		E:  liveness.Entry{State: liveness.Dead, Inc: e.Inc + 1, SP: e.SP},
	}})
}

// ClaimDomain injects a conflicting domain claim at target: victim
// allegedly serves summary peer sp, asserted at a superseding
// incarnation. Against a local victim the claim is refuted on merge;
// against a remote one it corrupts the domain mapping until the victim's
// host refutes it.
func (a *Adversary) ClaimDomain(target, victim, sp p2p.NodeID) {
	e := a.sys.Transport().Liveness().EntryOf(int(victim))
	a.inject(target, []liveness.Change{{
		ID: int(victim),
		E:  liveness.Entry{State: liveness.Alive, Inc: e.Inc + 1, SP: int(sp)},
	}})
}

func (a *Adversary) inject(target p2p.NodeID, delta []liveness.Change) {
	a.ver++
	a.sys.Transport().SendNew(core.MsgGossip, a.src, target, 0, core.GossipPayload{
		Tail:  core.GossipTail{Delta: liveness.Changes(delta), Ver: a.ver},
		Reply: true,
	})
}
