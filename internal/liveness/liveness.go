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
// Gossip carries a view in tails (Since, Delta, MergeChanges). A view
// publishes at most one immutable snapshot per version — entries, version
// stamps and encoded lengths — built the first time a tail needs it and
// shared by every later tail of that version. Since is O(1); sizing a
// tail's bytes is one pass over the stamps, O(1) for a full tail; and
// merging a tail back into the view that published it merges only the
// entries stamped since, none when the version has not moved.
//
// The package depends on nothing above the standard library but the wire
// encoding (internal/wire, itself standard-library only), so the transport
// layer (internal/p2p) can own a View without cycles.
package liveness

import (
	"fmt"
	"iter"
	"strings"
	"sync"
	"sync/atomic"

	"p2psum/internal/wire"
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

// wireWords is the one definition of an entry's wire layout: uvarint(inc<<2
// | state) — the state fits two bits — then varint(sp). AppendWire writes
// it, wireLen sizes it and ReadEntry reads it back.
func (e Entry) wireWords() (packed uint64, sp int64) {
	return e.Inc<<2 | uint64(e.State), int64(e.SP)
}

// AppendWire appends the entry's wire form to enc.
func (e Entry) AppendWire(enc *wire.Enc) {
	packed, sp := e.wireWords()
	enc.Uvarint(packed)
	enc.Varint(sp)
}

// wireLen is the number of bytes AppendWire writes.
func (e Entry) wireLen() int {
	packed, sp := e.wireWords()
	return wire.UvarintLen(packed) + wire.VarintLen(sp)
}

// ReadEntry reads one entry written by AppendWire. The state is returned
// as read (a corrupt one may exceed Dead) for the caller to reject, and
// truncation latches into d.
func ReadEntry(d *wire.Dec) Entry {
	packed := d.Uvarint()
	sp := d.Varint()
	return Entry{State: State(packed & 3), Inc: packed >> 2, SP: int(sp)}
}

// View is one process's membership view over n overlay nodes. All methods
// are safe for concurrent use; the observer (SetObserver) is invoked
// outside the view lock and may run concurrently with other mutations.
//
// Every effective mutation bumps the view-wide version counter and stamps
// the mutated entry with it, so the entries changed since any past version
// are exactly {id : vers[id] > then} — the basis of delta gossip (Since).
// The first tail taken at a version publishes an immutable snapshot of the
// view, which every tail of that version shares; the next effective
// mutation drops it.
type View struct {
	mu      sync.RWMutex
	entries []Entry
	vers    []uint64 // per-entry: version at last effective change
	lens    []uint8  // per-entry: Entry.wireLen, kept by bump
	total   int      // sum of lens
	// pub is the snapshot published at the current version, nil until a
	// tail needs it. Since stores it under the read lock (so it is atomic);
	// bump clears it under the write lock.
	pub atomic.Pointer[published]
	// alive mirrors entries[id].State == Alive for Online, the one reader
	// on every send and delivery, which reads it without the lock. bump
	// is its only writer.
	alive   []atomic.Bool
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
	v := &View{entries: make([]Entry, n), vers: make([]uint64, n), lens: make([]uint8, n),
		alive: make([]atomic.Bool, n), susInc: make([]uint64, n), local: local, version: 1}
	for i := range v.entries {
		v.entries[i].SP = NoSP
		v.vers[i] = 1
		v.lens[i] = uint8(v.entries[i].wireLen())
		v.total += int(v.lens[i])
		v.alive[i].Store(true)
	}
	return v
}

// bump stamps an effective mutation of entry id, resizes it and
// republishes its online bit, and drops the published snapshot. Every
// effective mutation calls it, after changing the entry. Caller holds mu.
func (v *View) bump(id int) {
	v.version++
	v.vers[id] = v.version
	l := uint8(v.entries[id].wireLen())
	v.total += int(l) - int(v.lens[id])
	v.lens[id] = l
	v.alive[id].Store(v.entries[id].State == Alive)
	v.pub.Store(nil)
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
// nodes count as offline until refuted). It takes no lock: it reads the
// per-node bit bump publishes with each change.
func (v *View) Online(id int) bool { return v.alive[id].Load() }

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

// Snapshot copies the current entries (index = node id). The copy is the
// caller's: the view never touches it again.
func (v *View) Snapshot() []Entry {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return append([]Entry(nil), v.entries...)
}

// Change names one entry of a delta: the node id and its record.
type Change struct {
	ID int
	E  Entry
}

// published is one immutable snapshot of a view at one version: its
// entries, their version stamps, each entry's encoded length and their
// total. A view publishes at most one per version; every Delta taken at
// that version is a window onto it.
type published struct {
	origin  *View
	version uint64
	entries []Entry
	vers    []uint64
	lens    []uint8 // Entry.wireLen per entry (at most 20)
	total   int     // sum of lens: the body of a full tail
}

// Delta is the payload of one gossip tail: a set of entries by node id,
// iterated in ascending id order. A Delta is immutable and may be shared
// between goroutines. It has two forms:
//
//   - published (View.Since): the entries of one published snapshot
//     stamped after a base version. Taking it costs nothing; sizing and
//     iterating it cost one pass over the snapshot's stamps, and sizing a
//     full one (base 0, every entry) costs nothing at all;
//   - sparse (Changes, Entries, decoded from the wire): a []Change.
//
// The zero Delta is empty.
type Delta struct {
	pub    *published
	after  uint64
	sparse []Change
}

// Changes wraps a sparse delta. cs is not copied, so the caller must not
// modify it afterwards. Its ids should ascend: iteration and the wire form
// keep cs's order (merging does not depend on it).
func Changes(cs []Change) Delta {
	if len(cs) == 0 {
		return Delta{}
	}
	return Delta{sparse: cs}
}

// Entries wraps a positional vector (index = node id) as a sparse delta,
// in one exact-size allocation.
func Entries(es []Entry) Delta {
	if len(es) == 0 {
		return Delta{}
	}
	cs := make([]Change, len(es))
	for id, e := range es {
		cs[id] = Change{ID: id, E: e}
	}
	return Delta{sparse: cs}
}

// All iterates the delta's entries in ascending id order.
func (d Delta) All() iter.Seq2[int, Entry] {
	return func(yield func(int, Entry) bool) {
		if d.pub == nil {
			for _, c := range d.sparse {
				if !yield(c.ID, c.E) {
					return
				}
			}
			return
		}
		for id, ver := range d.pub.vers {
			if ver > d.after && !yield(id, d.pub.entries[id]) {
				return
			}
		}
	}
}

// Size sizes the delta's wire forms without encoding them: n entries,
// entryBytes for their records (Entry.AppendWire) and gapBytes for their
// ids written as uvarint gaps to the predecessor (the first as id+1). A
// full delta is sized from the snapshot's cached total: its ids run
// 0..n-1, so every gap is one byte.
func (d Delta) Size() (n, entryBytes, gapBytes int) {
	p, prev := d.pub, -1
	switch {
	case p == nil:
		for _, c := range d.sparse {
			entryBytes += c.E.wireLen()
			gapBytes += wire.UvarintLen(uint64(c.ID - prev))
			prev = c.ID
		}
		return len(d.sparse), entryBytes, gapBytes
	case d.after == 0:
		return len(p.vers), p.total, len(p.vers)
	}
	for id, ver := range p.vers {
		if ver > d.after {
			n++
			entryBytes += int(p.lens[id])
			gapBytes += wire.UvarintLen(uint64(id - prev))
			prev = id
		}
	}
	return n, entryBytes, gapBytes
}

// Since returns the entries whose last effective change is newer than
// after, together with the view's current version — the delta a partner
// that has merged everything up to version after still needs. Since(0) is
// the whole view (a fresh view stamps everything at version 1): the form a
// full tail carries. Since neither scans nor copies: the delta is a window
// onto the snapshot published at the current version, which the first
// call at that version builds (one O(n) copy) and later calls share. It
// returns the empty Delta when nothing changed since after.
func (v *View) Since(after uint64) (Delta, uint64) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if after >= v.version {
		return Delta{}, v.version
	}
	p := v.pub.Load()
	if p == nil {
		p = &published{origin: v, version: v.version, total: v.total,
			entries: append([]Entry(nil), v.entries...),
			vers:    append([]uint64(nil), v.vers...),
			lens:    append([]uint8(nil), v.lens...),
		}
		// Concurrent readers may race to publish; one copy wins, and both
		// describe this same version (no bump runs under the read lock).
		if !v.pub.CompareAndSwap(nil, p) {
			p = v.pub.Load()
		}
	}
	return Delta{pub: p, after: after}, v.version
}

// Merge folds a remote view's positional entries in; it is MergeChanges
// over Entries(remote).
func (v *View) Merge(remote []Entry) (changed []int, newerLocal bool) {
	return v.MergeChanges(Entries(remote))
}

// MergeChanges folds a remote delta in — the anti-entropy step. For
// non-local nodes the superseding remote entry is adopted verbatim. For
// nodes this process hosts the view is authoritative: a remote entry that
// would supersede the local one is refuted instead — the local state is
// re-asserted at remote.Inc+1, so a process marked dead while partitioned
// gossips itself back to alive after reconnecting. Ids outside the view
// are ignored (a partner sized for a different overlay). MergeChanges
// returns the ids whose entries changed, in the delta's order, and whether
// this view holds information the remote lacks among the named entries
// (any local entry superseding the corresponding remote one) — the signal
// to send a reply gossip.
//
// A delta this view published itself merges only the entries stamped
// after the snapshot's version, and nothing when the version has not
// moved: every other entry still holds the snapshot's record, and merging
// an equal record is a no-op. On the in-memory transports, which share
// one view, every tail is such a delta.
func (v *View) MergeChanges(d Delta) (changed []int, newerLocal bool) {
	var notes []Change
	v.mu.Lock()
	switch p := d.pub; {
	case p == nil:
		for _, c := range d.sparse {
			if c.ID >= 0 && c.ID < len(v.entries) && v.mergeOne(c.ID, c.E, &notes) {
				newerLocal = true
			}
		}
	case p.origin == v:
		if v.version != p.version {
			for id, ver := range p.vers {
				if ver > d.after && v.vers[id] > p.version && v.mergeOne(id, p.entries[id], &notes) {
					newerLocal = true
				}
			}
		}
	default:
		for id, ver := range p.vers[:min(len(p.vers), len(v.entries))] {
			if ver > d.after && v.mergeOne(id, p.entries[id], &notes) {
				newerLocal = true
			}
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
	case r == *cur:
		// An equal record neither supersedes nor is superseded: the rule
		// that bounds MergeChanges of a self-published delta.
		return false
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
