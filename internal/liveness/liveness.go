// Package liveness is the membership layer of the overlay: a per-process
// view of every node's liveness state (alive, suspect, dead) with SWIM-style
// incarnation numbers, plus each node's current domain claim. The paper
// treats peer dynamicity as a first-class protocol concern (§4.3: joins,
// graceful leaves, silent failures, summary-peer departures); this package
// extracts the truth those paths act on out of the transports, so every
// backend — the discrete-event engine, the channel transport and real TCP
// processes — answers "who is online" from the same state machine.
//
// One View exists per transport. The in-memory transports host the whole
// overlay, so their single View is ground truth and anti-entropy merges are
// vacuous. A TCP process hosts a subset of the nodes: its View is
// authoritative for the local nodes only, and the remote entries converge
// through the gossip messages internal/core exchanges (Merge). Conflicts
// resolve by incarnation number first and by state severity second
// (dead > suspect > alive at equal incarnation); a process that sees a
// remote claim superseding one of its OWN nodes re-asserts its local state
// at a higher incarnation — the SWIM refutation that brings a reconnected
// process back to alive in everyone's view.
//
// The package deliberately depends on nothing above the standard library so
// the transport layer (internal/p2p) can own a View without cycles.
package liveness

import (
	"fmt"
	"strings"
	"sync"
)

// State is a node's liveness state in a view.
type State uint8

// Liveness states, ordered by severity: at equal incarnation the more
// severe state wins a merge.
const (
	// Alive: the node is believed online.
	Alive State = iota
	// Suspect: a message to the node was dropped, or a silent failure was
	// observed locally (§4.3); the node counts as offline but the verdict is
	// provisional until the suspicion timeout confirms it.
	Suspect
	// Dead: the node is confirmed offline (graceful departure, confirmed
	// suspicion, or local authoritative knowledge).
	Dead
)

// String names the state.
func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// NoSP is the SP claim of a node outside every domain.
const NoSP = -1

// Entry is one node's liveness record: the state, the incarnation number
// ordering conflicting records, and the node's current summary-peer claim
// (NoSP when it belongs to no domain; a summary peer claims itself). The SP
// claim rides the liveness gossip so Coverage and DomainMembers agree
// across the processes of a TCP deployment.
type Entry struct {
	State State
	Inc   uint64
	SP    int
}

// Supersedes reports whether e wins a merge against old: higher incarnation
// first, then the more severe state.
func (e Entry) Supersedes(old Entry) bool {
	if e.Inc != old.Inc {
		return e.Inc > old.Inc
	}
	return e.State > old.State
}

// View is one process's membership view over n overlay nodes. All methods
// are safe for concurrent use; the observer (SetObserver) is invoked
// outside the view lock and may run concurrently with other mutations.
//
// Every effective mutation bumps the view-wide version counter and stamps
// the mutated entry with it, so the entries changed since any past version
// are exactly {id : vers[id] > then} — the basis of delta gossip (Since).
type View struct {
	mu      sync.RWMutex
	entries []Entry
	vers    []uint64          // per-entry: version at last effective change
	local   func(id int) bool // nil: every node is local (in-memory transports)
	version uint64
	// susInc marks the open suspicion filing per node: inc+1 of the
	// incarnation the suspicion was filed under, 0 when none is open. The
	// filing survives a refutation re-assert (which bumps the entry's
	// incarnation but not the outage it refers to), so the original
	// confirmation timer still resolves it; only a fresh MarkAlive clears
	// it. One incarnation files at most one suspicion — the dedupe that
	// keeps the partition double-count (keepalive teardown plus §4.3 drop
	// path reporting the same peer) out of the counters and timers.
	susInc     []uint64
	suspicions uint64

	obsMu    sync.Mutex
	observer func(id int, e Entry)
}

// NewView builds a view over n nodes, all alive at incarnation 0 with no
// domain claim. local reports whether a node's ground truth lives in this
// process (its entries are never overwritten by merges, only re-asserted);
// nil marks every node local — the in-memory transports. The view starts
// at version 1 with every entry stamped 1, so version 0 unambiguously
// means "has never seen anything of this view" to a gossip partner.
func NewView(n int, local func(id int) bool) *View {
	v := &View{entries: make([]Entry, n), vers: make([]uint64, n), susInc: make([]uint64, n), local: local, version: 1}
	for i := range v.entries {
		v.entries[i].SP = NoSP
		v.vers[i] = 1
	}
	return v
}

// bump stamps an effective mutation of entry id. Caller holds mu.
func (v *View) bump(id int) {
	v.version++
	v.vers[id] = v.version
}

// Len returns the number of nodes.
func (v *View) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.entries)
}

// Version returns a counter bumped on every effective mutation; gossip
// senders use it to skip redundant exchanges.
func (v *View) Version() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.version
}

// Local reports whether the node's ground truth lives in this process.
func (v *View) Local(id int) bool {
	if v.local == nil {
		return true
	}
	return v.local(id)
}

// StateOf returns the node's current liveness state.
func (v *View) StateOf(id int) State {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.entries[id].State
}

// EntryOf returns the node's full record.
func (v *View) EntryOf(id int) Entry {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.entries[id]
}

// Online reports whether the node is believed online (state Alive; suspect
// nodes count as offline until refuted).
func (v *View) Online(id int) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.entries[id].State == Alive
}

// OnlineCount returns the number of nodes believed online.
func (v *View) OnlineCount() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	c := 0
	for _, e := range v.entries {
		if e.State == Alive {
			c++
		}
	}
	return c
}

// OnlineIDs returns the ids of the nodes believed online, ascending.
func (v *View) OnlineIDs() []int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var out []int
	for i, e := range v.entries {
		if e.State == Alive {
			out = append(out, i)
		}
	}
	return out
}

// SPOf returns the node's current summary-peer claim (NoSP outside every
// domain).
func (v *View) SPOf(id int) int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.entries[id].SP
}

// SetObserver installs the liveness hook: fn observes every effective entry
// change (local transitions and merged remote ones). It is called outside
// the view lock; installing nil removes the hook.
func (v *View) SetObserver(fn func(id int, e Entry)) {
	v.obsMu.Lock()
	v.observer = fn
	v.obsMu.Unlock()
}

func (v *View) notify(id int, e Entry) {
	v.obsMu.Lock()
	fn := v.observer
	v.obsMu.Unlock()
	if fn != nil {
		fn(id, e)
	}
}

// MarkAlive records the node (re)joining: any state transitions to Alive at
// the next incarnation, superseding every older suspicion or death. It
// reports whether the entry changed (false when already alive).
func (v *View) MarkAlive(id int) bool {
	v.mu.Lock()
	e := &v.entries[id]
	if e.State == Alive {
		v.mu.Unlock()
		return false
	}
	e.State = Alive
	e.Inc++
	v.susInc[id] = 0 // a fresh incarnation refutes any filed suspicion
	v.bump(id)
	out := *e
	v.mu.Unlock()
	v.notify(id, out)
	return true
}

// MarkDead records authoritative knowledge that the node is offline
// (graceful departure, or the driver of the hosting process took it down).
// The incarnation is kept: dead outranks alive and suspect at the same
// incarnation. It reports whether the entry changed.
func (v *View) MarkDead(id int) bool {
	v.mu.Lock()
	e := &v.entries[id]
	if e.State == Dead {
		v.mu.Unlock()
		return false
	}
	e.State = Dead
	v.bump(id)
	out := *e
	v.mu.Unlock()
	v.notify(id, out)
	return true
}

// MarkSuspect records indirect failure evidence (a dropped message, a
// silent §4.3 departure): an Alive node turns Suspect at its current
// incarnation. Dead and already-suspect entries are left alone. It returns
// the incarnation the suspicion is filed under and whether the entry
// changed — callers arm a confirmation timer with that incarnation. Each
// incarnation files at most one suspicion: a second failure path reporting
// the same outage neither re-files nor double-counts.
func (v *View) MarkSuspect(id int) (inc uint64, changed bool) {
	v.mu.Lock()
	e := &v.entries[id]
	if e.State != Alive {
		inc = e.Inc
		v.mu.Unlock()
		return inc, false
	}
	e.State = Suspect
	if v.susInc[id] != e.Inc+1 {
		v.susInc[id] = e.Inc + 1
		v.suspicions++
	}
	v.bump(id)
	out := *e
	v.mu.Unlock()
	v.notify(id, out)
	return out.Inc, true
}

// Suspicions returns the number of distinct suspicions ever filed in this
// view, deduped by node and incarnation — one real outage counts once no
// matter how many failure paths report it. Scenario harnesses read it.
func (v *View) Suspicions() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.suspicions
}

// Confirm promotes a suspicion to Dead if the node is still Suspect and
// the filing made at the given incarnation is still the open one — the
// suspicion-timeout path. The filing, not the entry's incarnation, is
// compared: a refutation re-assert (a partitioned far side's Dead claim
// bounced off this authoritative view) bumps the entry's incarnation
// without closing the outage, and the original timer must still resolve
// it. A node that rejoined in the meantime cleared the filing and is left
// alone. It reports whether the promotion happened.
func (v *View) Confirm(id int, inc uint64) bool {
	v.mu.Lock()
	e := &v.entries[id]
	if e.State != Suspect || v.susInc[id] != inc+1 {
		v.mu.Unlock()
		return false
	}
	e.State = Dead
	v.bump(id)
	out := *e
	v.mu.Unlock()
	v.notify(id, out)
	return true
}

// SetSP records the node's summary-peer claim (NoSP clears it). Claims are
// written by the process hosting the node (domain adoption runs on the
// owner's handlers) — and identically by every process at summary-peer
// assignment, which is shared configuration. A claim change on an Alive
// node bumps the incarnation so it supersedes older gossip; claims on
// non-alive entries ride the current incarnation (they are superseded by
// the owner's next MarkAlive anyway). It reports whether the entry changed.
func (v *View) SetSP(id, sp int) bool {
	v.mu.Lock()
	e := &v.entries[id]
	if e.SP == sp {
		v.mu.Unlock()
		return false
	}
	e.SP = sp
	if e.State == Alive {
		e.Inc++
	}
	v.bump(id)
	out := *e
	v.mu.Unlock()
	v.notify(id, out)
	return true
}

// Snapshot copies the current entries — the payload of a gossip message.
// The result is never mutated by the view afterwards and may be shared.
func (v *View) Snapshot() []Entry {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return append([]Entry(nil), v.entries...)
}

// VersionedSnapshot copies the current entries together with the version
// they represent — the payload of a full-sync gossip message. Merging the
// entries and acknowledging the version hands the partner a consistent
// baseline for future deltas.
func (v *View) VersionedSnapshot() ([]Entry, uint64) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return append([]Entry(nil), v.entries...), v.version
}

// Change names one entry of a delta: the node id and its record.
type Change struct {
	ID int
	E  Entry
}

// Since returns the entries whose last effective change is newer than
// after, ascending by id, together with the view's current version — the
// delta a partner that has merged everything up to version after still
// needs. Since(0) returns every entry: a fresh view stamps everything at
// version 1. It allocates at most once: the matching entries are counted
// first and copied into one slice of exactly that length, and nothing
// (a nil slice) is allocated when nothing changed.
func (v *View) Since(after uint64) ([]Change, uint64) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	n := 0
	for _, ver := range v.vers {
		if ver > after {
			n++
		}
	}
	if n == 0 {
		return nil, v.version
	}
	out := make([]Change, 0, n)
	for id, ver := range v.vers {
		if ver > after {
			out = append(out, Change{ID: id, E: v.entries[id]})
		}
	}
	return out, v.version
}

// Merge folds a remote view's entries in — the anti-entropy step. For
// non-local nodes the superseding remote entry is adopted verbatim. For
// nodes this process hosts the view is authoritative: a remote entry that
// would supersede the local one is refuted instead — the local state is
// re-asserted at remote.Inc+1, so a process marked dead while partitioned
// gossips itself back to alive after reconnecting. Merge returns the ids
// whose entries changed and whether this view holds information the remote
// lacks (any local entry superseding the corresponding remote one) — the
// signal to send a reply gossip.
func (v *View) Merge(remote []Entry) (changed []int, newerLocal bool) {
	var notes []Change
	v.mu.Lock()
	for id := 0; id < len(v.entries) && id < len(remote); id++ {
		if v.mergeOne(id, remote[id], &notes) {
			newerLocal = true
		}
	}
	v.mu.Unlock()
	return v.noteChanges(notes), newerLocal
}

// MergeChanges folds a delta — remote records for named ids — into the
// view with the same per-entry semantics as Merge. Ids outside the view
// are ignored (a partner sized for a different overlay). It returns the
// ids whose entries changed and whether this view holds information the
// remote lacks among the named entries.
func (v *View) MergeChanges(delta []Change) (changed []int, newerLocal bool) {
	var notes []Change
	v.mu.Lock()
	for _, c := range delta {
		if c.ID < 0 || c.ID >= len(v.entries) {
			continue
		}
		if v.mergeOne(c.ID, c.E, &notes) {
			newerLocal = true
		}
	}
	v.mu.Unlock()
	return v.noteChanges(notes), newerLocal
}

// mergeOne folds one remote record into entry id, appending any effective
// change to notes. It reports whether the local entry supersedes the remote
// one — information the remote lacks. Caller holds mu.
func (v *View) mergeOne(id int, r Entry, notes *[]Change) (newerLocal bool) {
	cur := &v.entries[id]
	switch {
	case r.State > Dead:
		// Forged state value: never adopt it, and flag the entry so the
		// reply gossip carries the truth back.
		return true
	case !r.Supersedes(*cur):
		return cur.Supersedes(r)
	case v.Local(id):
		// Authoritative entry: re-assert the local state above the
		// remote's incarnation instead of adopting.
		cur.Inc = r.Inc + 1
		v.bump(id)
		*notes = append(*notes, Change{id, *cur})
		return true
	default:
		*cur = r
		v.bump(id)
		*notes = append(*notes, Change{id, *cur})
		return false
	}
}

// noteChanges fires the observer for each note outside the lock and
// collects the changed ids (nil when the merge was vacuous).
func (v *View) noteChanges(notes []Change) []int {
	if len(notes) == 0 {
		return nil
	}
	changed := make([]int, 0, len(notes))
	for _, n := range notes {
		changed = append(changed, n.ID)
		v.notify(n.ID, n.E)
	}
	return changed
}

// String renders a compact dump, e.g. "0=alive/sp0 1=suspect/sp0 2=dead".
func (v *View) String() string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var sb strings.Builder
	for i, e := range v.entries {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d=%s", i, e.State)
		if e.SP != NoSP {
			fmt.Fprintf(&sb, "/sp%d", e.SP)
		}
	}
	return sb.String()
}
