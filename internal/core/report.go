package core

import (
	"fmt"
	"sort"
	"strings"

	"p2psum/internal/p2p"
)

// DomainReport is a point-in-time snapshot of one domain's health, used by
// monitoring tools (cmd/p2psim) and tests.
type DomainReport struct {
	SummaryPeer   p2p.NodeID
	Partners      int     // cooperation-list size
	OnlineMembers int     // currently connected members (SP included)
	StaleFraction float64 // Σv/|CL|
	Reconciling   bool
	// Data-level fields (zero at protocol level). SummaryNodes counts the
	// nodes across every store shard (a sharded store contributes one root
	// per shard); SummaryLeaves and SummaryWeight are layout-invariant.
	SummaryNodes  int
	SummaryLeaves int
	SummaryWeight float64
	// SummaryShards is the store's shard count (1 for the single-tree
	// layout, 0 at protocol level).
	SummaryShards int
}

// String renders one report line.
func (r DomainReport) String() string {
	s := fmt.Sprintf("domain sp=%d partners=%d online=%d stale=%.1f%%",
		r.SummaryPeer, r.Partners, r.OnlineMembers, 100*r.StaleFraction)
	if r.Reconciling {
		s += " reconciling"
	}
	if r.SummaryNodes > 0 {
		s += fmt.Sprintf(" summary=%dn/%dl w=%.0f", r.SummaryNodes, r.SummaryLeaves, r.SummaryWeight)
		if r.SummaryShards > 1 {
			s += fmt.Sprintf(" shards=%d", r.SummaryShards)
		}
	}
	return s
}

// Report snapshots one domain.
func (s *System) Report(sp p2p.NodeID) (DomainReport, error) {
	if s.peers[sp].role != RoleSummaryPeer {
		return DomainReport{}, fmt.Errorf("core: node %d is not a summary peer", sp)
	}
	return s.report(sp, len(s.DomainMembers(sp))), nil
}

// report assembles a summary peer's report around its online member count.
func (s *System) report(sp p2p.NodeID, online int) DomainReport {
	p := s.peers[sp]
	r := DomainReport{
		SummaryPeer:   sp,
		Partners:      p.cl.Len(),
		OnlineMembers: online,
		StaleFraction: p.cl.StaleFraction(),
		Reconciling:   p.reconciling,
	}
	if p.gs != nil {
		r.SummaryNodes = p.gs.NodeCount()
		r.SummaryLeaves = p.gs.LeafCount()
		r.SummaryWeight = p.gs.Weight()
		r.SummaryShards = p.gs.NumShards()
	}
	return r
}

// ReportAll snapshots every domain, ordered by summary-peer id. Every
// domain's online members are counted in one pass over the view.
func (s *System) ReportAll() []DomainReport {
	sizes := s.domainSizes()
	out := make([]DomainReport, 0, len(s.sps))
	for _, sp := range s.sps {
		if s.peers[sp].role == RoleSummaryPeer {
			out = append(out, s.report(sp, 1+sizes[sp]))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SummaryPeer < out[j].SummaryPeer })
	return out
}

// Describe renders a multi-line system overview.
func (s *System) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "system: %d peers (%d online), %d domains, coverage %.0f%%, %d reconciliations\n",
		s.net.Len(), s.net.OnlineCount(), len(s.sps), 100*s.Coverage(), s.Stats().Reconciliations)
	for _, r := range s.ReportAll() {
		sb.WriteString("  " + r.String() + "\n")
	}
	return sb.String()
}
