// Package scenario is the fault-scenario engine: it scripts correlated
// fault events — network partitions, flash crowds, adversarial membership
// claims — against one or more protocol stacks (core.System instances)
// sharing an overlay, on any transport.
//
// The engine operates through two hooks and the public membership API:
//
//   - Partitions install a p2p.LinkFilter on every stack's transport
//     (Transport.SetLinkFilter), so a severed link drops messages through
//     the §4.3 drop callback, disappears from Neighbors, and blocks walks
//     and floods — on a TCP deployment every process installs the same
//     scripted filter and both sides of the cut degrade symmetrically
//     without touching sockets.
//
//   - Membership faults (Leave, Fail, Join) route through System.Leave/Join on
//     the stack hosting the node, and the engine records its own intent:
//     which nodes the script actually took down.
//     That intent is what lets Heal distinguish a false suspicion (a live
//     node marked dead across a cut) from a real death.
//
// Determinism contract: the engine holds no clocks and draws no
// randomness. On the discrete-event Network every scripted step is an
// engine event, so a seeded run is bit-for-bit reproducible; on the
// channel and TCP transports the outcome is whatever the wall-clock
// interleaving produces, and tests assert converged end states rather
// than traces.
//
// View semantics across transports differ in one important way. The
// in-memory transports share one ground-truth liveness view for the whole
// overlay, so a partition with gossip enabled poisons both sides' picture
// at once (a node suspected across the cut looks suspect to its own
// domain too); Heal therefore refutes the false deaths directly in the
// shared view (MarkAlive for every node the script knows is up), playing
// the role the per-process local-authority refutation plays on TCP. TCP
// transports keep one view per process and heal themselves: after the
// filter lifts, liveness gossip crosses the cut again and each process
// refutes the claims about its own nodes at a higher incarnation.
//
// Lock order: Engine.mu is a leaf lock guarding only the engine's intent
// maps — never held across a transport or System call.
package scenario

import (
	"p2psum/internal/core"
	"p2psum/internal/liveness"
	"p2psum/internal/p2p"
	"sync"
)

// Engine scripts fault scenarios against a set of protocol stacks. One
// stack for an in-memory transport; one per process for a TCP deployment
// (the engine plays the role of the test harness driving all processes).
type Engine struct {
	stacks []*core.System

	mu sync.Mutex
	// side is the current partition assignment (node -> side index), nil
	// when no cut is installed. Nodes absent from every side keep all
	// their links.
	side map[p2p.NodeID]int
	// downed tracks the nodes this script itself took down and has not
	// brought back — the ground truth Heal refutes false suspicions
	// against.
	downed map[p2p.NodeID]bool
}

// New builds an engine driving the given stacks. Membership faults must
// flow through the engine (not System.Leave/Join directly) for its
// intent tracking — and therefore Heal's refutation — to stay truthful.
func New(stacks ...*core.System) *Engine {
	return &Engine{stacks: stacks, downed: make(map[p2p.NodeID]bool)}
}

// Partition installs a cut separating the given node sets: a link is
// severed iff its endpoints sit in different sets. Nodes listed in no set
// keep every link (including into each set — a real partition must
// assign every node). Calling Partition again replaces the previous cut.
func (e *Engine) Partition(sets ...[]p2p.NodeID) {
	side := make(map[p2p.NodeID]int)
	for i, set := range sets {
		for _, id := range set {
			side[id] = i
		}
	}
	// The filter closes over the immutable map — the LinkFilter contract;
	// replacing the cut builds a fresh closure.
	filter := func(from, to p2p.NodeID) bool {
		a, oka := side[from]
		b, okb := side[to]
		return oka && okb && a != b
	}
	e.mu.Lock()
	e.side = side
	e.mu.Unlock()
	for _, s := range e.stacks {
		s.Transport().SetLinkFilter(filter)
	}
}

// Heal removes the cut from every transport and repairs the false deaths
// it caused. On shared-view transports the engine refutes directly: every
// node the script believes up but the view holds Suspect or Dead is
// marked alive at a higher incarnation (the exact repair per-process
// views perform through liveness gossip — a shared view has no second
// process to refute for it). Stacks with per-process views (p2p.Localizer
// transports) are left to reconverge through gossip.
func (e *Engine) Heal() {
	for _, s := range e.stacks {
		s.Transport().SetLinkFilter(nil)
	}
	e.mu.Lock()
	e.side = nil
	e.mu.Unlock()
	for _, s := range e.stacks {
		tr := s.Transport()
		if _, perProcess := tr.(p2p.Localizer); perProcess {
			continue // per-process views refute through liveness gossip
		}
		tr.Exec(func() {
			view := tr.Liveness()
			for id := 0; id < view.Len(); id++ {
				if !e.isDown(p2p.NodeID(id)) && view.StateOf(id) != liveness.Alive {
					view.MarkAlive(id)
				}
			}
		})
	}
}

// Leave takes a node down gracefully (goodbye pushes, immediate Dead) and
// records the death as scripted ground truth.
func (e *Engine) Leave(id p2p.NodeID) {
	e.setDown(id, true)
	e.eachHost(id, func(s *core.System) { s.Leave(id, true) })
}

// Fail takes a node down silently (§4.3 silent failure: suspicion, then
// confirmation) and records the death as scripted ground truth.
func (e *Engine) Fail(id p2p.NodeID) {
	e.setDown(id, true)
	e.eachHost(id, func(s *core.System) { s.Leave(id, false) })
}

// Join brings a node back (§4.3 join) and clears it from the scripted
// death set.
func (e *Engine) Join(id p2p.NodeID) {
	e.setDown(id, false)
	e.eachHost(id, func(s *core.System) { s.Join(id) })
}

// Converged reports whether every stack's liveness view agrees with the
// scripted ground truth: each node Alive unless the script took it down,
// and non-Alive if it did. This is the reconvergence predicate the fault
// experiments time after a heal.
func (e *Engine) Converged() bool {
	for _, s := range e.stacks {
		view := s.Transport().Liveness()
		for id := 0; id < view.Len(); id++ {
			alive := view.StateOf(id) == liveness.Alive
			if alive == e.isDown(p2p.NodeID(id)) {
				return false
			}
		}
	}
	return true
}

func (e *Engine) setDown(id p2p.NodeID, down bool) {
	e.mu.Lock()
	if down {
		e.downed[id] = true
	} else {
		delete(e.downed, id)
	}
	e.mu.Unlock()
}

func (e *Engine) isDown(id p2p.NodeID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.downed[id]
}

// eachHost applies fn to every stack hosting the node's handlers: the one
// stack of an in-memory transport, the owning process of a TCP
// deployment (membership is local-authority state there).
func (e *Engine) eachHost(id p2p.NodeID, fn func(*core.System)) {
	for _, s := range e.stacks {
		if p2p.IsLocal(s.Transport(), id) {
			fn(s)
		}
	}
}
