package liveness

import (
	"fmt"
	"strings"
)

// Test-only references and probes. SinceReference and
// VersionedSnapshotReference are the delta and full-snapshot builders gossip
// used before views published snapshots: a scan of the version stamps and
// an exact-size copy per tail. The oracle tests hold the published deltas
// to them.

// SinceReference returns the entries stamped after the given version,
// ascending by id, with the view's current version (nil when none).
func SinceReference(v *View, after uint64) ([]Change, uint64) {
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

// VersionedSnapshotReference copies the entries with the version they
// represent.
func VersionedSnapshotReference(v *View) ([]Entry, uint64) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return append([]Entry(nil), v.entries...), v.version
}

// CloneView returns an independent view in v's exact state — entries,
// stamps, version, open suspicions — with the same locality and no
// observer or published snapshot. A delta v published merges into the
// clone through the general path, not the bounded self-merge.
func CloneView(v *View) *View {
	v.mu.RLock()
	defer v.mu.RUnlock()
	c := NewView(len(v.entries), v.local)
	copy(c.entries, v.entries)
	copy(c.vers, v.vers)
	copy(c.lens, v.lens)
	copy(c.susInc, v.susInc)
	for id, e := range v.entries {
		c.alive[id].Store(e.State == Alive)
	}
	c.version, c.suspicions, c.total = v.version, v.suspicions, v.total
	return c
}

// StateOfView renders every field of a view's state that a merge may
// touch, for equality checks between views.
func StateOfView(v *View) string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var sb strings.Builder
	fmt.Fprintf(&sb, "version=%d suspicions=%d", v.version, v.suspicions)
	for id, e := range v.entries {
		fmt.Fprintf(&sb, " %d:%d/%d/%d@%d~%d,%v", id, e.State, e.Inc, e.SP, v.vers[id], v.susInc[id], v.alive[id].Load())
	}
	return sb.String()
}

// ChangesOf lists a delta's entries in iteration order (nil when empty).
func ChangesOf(d Delta) []Change {
	var out []Change
	for id, e := range d.All() {
		out = append(out, Change{ID: id, E: e})
	}
	return out
}

// WireLen exposes the cached per-entry length for the oracle tests.
func (e Entry) WireLen() int { return e.wireLen() }
