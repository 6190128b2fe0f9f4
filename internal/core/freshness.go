// Package core implements the paper's primary contribution: summary
// management in super-peer domains (§4) — domain construction with the
// sumpeer/localsum/drop/find protocol, cooperation lists with freshness
// values, push-based data-modification notification, pull-based ring
// reconciliation gated by the threshold α, and peer-dynamicity handling
// (join, graceful leave, silent failure, summary-peer release).
//
// The package runs at two levels. At the protocol level (Config.DataLevel
// false) summaries are opaque and only the membership/freshness machinery is
// exercised — this is what the paper's own SimJava evaluation does, and what
// the Figure 4–6 experiments use. At the data level (DataLevel true) the
// localsum and reconciliation messages carry real SaintEtiQ hierarchies, so
// a domain's global summary can be queried with internal/query — this is
// what the examples and integration tests exercise.
package core

import (
	"fmt"
	"slices"
	"strings"

	"p2psum/internal/p2p"
)

// Freshness is the cooperation-list value v of §4.1.
type Freshness uint8

// Freshness values.
const (
	// Fresh (0): descriptions are fresh relative to the original data.
	Fresh Freshness = 0
	// Stale (1): the descriptions need to be refreshed.
	Stale Freshness = 1
	// Unavailable (2): the original data is not available (two-bit mode
	// only; §4.3 folds this into Stale in the one-bit mode the paper
	// finally adopts).
	Unavailable Freshness = 2
)

// String names the freshness value.
func (f Freshness) String() string {
	switch f {
	case Fresh:
		return "fresh"
	case Stale:
		return "stale"
	case Unavailable:
		return "unavailable"
	default:
		return fmt.Sprintf("Freshness(%d)", uint8(f))
	}
}

// Mode selects the cooperation-list encoding.
type Mode int

// Cooperation-list modes.
const (
	// OneBit is the mode the paper adopts (§4.3): 0 = fresh, 1 = stale or
	// unavailable.
	OneBit Mode = iota
	// TwoBit is the richer §4.1 encoding with the distinct Unavailable
	// value.
	TwoBit
)

// CooperationList is the per-global-summary partner table (§4.1): one
// freshness value per partner peer. It is laid out as the paper's table:
// partner ids strictly ascending (the canonical ring order) with their
// values in a parallel slice, plus the running integer Σv that the
// reconciliation trigger of §6.1.1 divides by |CL|. Lookups are binary
// searches; Set and Remove keep the sum current, so evaluating the trigger
// on every push costs O(1) instead of a walk over the whole list.
type CooperationList struct {
	mode Mode
	ids  []p2p.NodeID
	vals []Freshness
	sum  int
}

// NewCooperationList creates an empty list in the given mode.
func NewCooperationList(mode Mode) *CooperationList {
	return &CooperationList{mode: mode}
}

// Mode returns the list's encoding mode.
func (cl *CooperationList) Mode() Mode { return cl.mode }

// Len returns the number of partners.
func (cl *CooperationList) Len() int { return len(cl.ids) }

// Has reports whether the peer is a partner.
func (cl *CooperationList) Has(p p2p.NodeID) bool {
	_, ok := slices.BinarySearch(cl.ids, p)
	return ok
}

// Get returns the peer's freshness value.
func (cl *CooperationList) Get(p p2p.NodeID) (Freshness, bool) {
	if i, ok := slices.BinarySearch(cl.ids, p); ok {
		return cl.vals[i], true
	}
	return 0, false
}

// Set inserts or updates a partner's freshness value. In one-bit mode an
// Unavailable write is folded into Stale (§4.3).
func (cl *CooperationList) Set(p p2p.NodeID, v Freshness) {
	if cl.mode == OneBit && v == Unavailable {
		v = Stale
	}
	i, ok := slices.BinarySearch(cl.ids, p)
	if ok {
		cl.sum += int(v) - int(cl.vals[i])
		cl.vals[i] = v
		return
	}
	cl.ids = slices.Insert(cl.ids, i, p)
	cl.vals = slices.Insert(cl.vals, i, v)
	cl.sum += int(v)
}

// Remove drops a partner (the drop message of §4.1).
func (cl *CooperationList) Remove(p p2p.NodeID) {
	i, ok := slices.BinarySearch(cl.ids, p)
	if !ok {
		return
	}
	cl.sum -= int(cl.vals[i])
	cl.ids = slices.Delete(cl.ids, i, i+1)
	cl.vals = slices.Delete(cl.vals, i, i+1)
}

// Partners returns the partner ids in ascending order (the canonical ring
// order used by reconciliation). The slice is the caller's to keep.
func (cl *CooperationList) Partners() []p2p.NodeID {
	return append(make([]p2p.NodeID, 0, len(cl.ids)), cl.ids...)
}

// FreshPeers returns the partners with v = 0 (the paper's Pfresh, §6.1.2),
// ascending.
func (cl *CooperationList) FreshPeers() []p2p.NodeID { return cl.withValue(true) }

// StalePeers returns the partners with v >= 1 (the paper's Pold),
// ascending.
func (cl *CooperationList) StalePeers() []p2p.NodeID { return cl.withValue(false) }

func (cl *CooperationList) withValue(fresh bool) []p2p.NodeID {
	var out []p2p.NodeID
	for i, v := range cl.vals {
		if (v == Fresh) == fresh {
			out = append(out, cl.ids[i])
		}
	}
	return out
}

// StaleFraction evaluates the reconciliation trigger Σv / |CL| of §6.1.1.
// In two-bit mode an Unavailable entry literally counts 2, as the paper's
// formula sums the raw values; an empty list is entirely fresh. Σv is an
// integer kept by Set and Remove, so the quotient is exactly the one a
// float sum over the entries gives.
func (cl *CooperationList) StaleFraction() float64 {
	if len(cl.ids) == 0 {
		return 0
	}
	return float64(cl.sum) / float64(len(cl.ids))
}

// ResetAll sets every entry to Fresh (end of reconciliation, §4.2.2).
func (cl *CooperationList) ResetAll() {
	clear(cl.vals)
	cl.sum = 0
}

// settle applies the end of a ring reconciliation (§4.2.2, §4.3) in one
// pass over the partners: a partner in merged becomes Fresh, a partner
// that did not take part but keep accepts stays as Stale, and any other
// partner is dropped. merged is ascending by construction — the token
// visits partners in ring order — but over TCP it is decoded from another
// process's frame, so input that is not sorted is sorted in a copy first
// rather than trusted; duplicates are harmless.
func (cl *CooperationList) settle(merged []p2p.NodeID, keep func(p2p.NodeID) bool) {
	if !slices.IsSorted(merged) {
		merged = slices.Clone(merged)
		slices.Sort(merged)
	}
	n, j := 0, 0
	cl.sum = 0
	for _, id := range cl.ids {
		for j < len(merged) && merged[j] < id {
			j++
		}
		var v Freshness
		switch {
		case j < len(merged) && merged[j] == id:
			v = Fresh
		case keep(id):
			v = Stale
		default:
			continue
		}
		cl.ids[n], cl.vals[n] = id, v
		cl.sum += int(v)
		n++
	}
	cl.ids, cl.vals = cl.ids[:n], cl.vals[:n]
}

// String renders "CL{3: 1=fresh 2=stale 5=fresh}".
func (cl *CooperationList) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "CL{%d:", len(cl.ids))
	for i, p := range cl.ids {
		fmt.Fprintf(&sb, " %d=%s", p, cl.vals[i])
	}
	sb.WriteString("}")
	return sb.String()
}
