package p2psum

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// TestFullStackDataLevel is the end-to-end scenario the paper describes:
// a data-level network of peers with real databases, domain construction,
// query answering through the global summary, churn, reconciliation, and
// the invariant checks that tie all layers together.
func TestFullStackDataLevel(t *testing.T) {
	const peers = 40
	b := MedicalBK()
	sim, err := NewSimulation(SimOptions{
		Peers:        peers,
		SummaryPeers: 2,
		Alpha:        0.3,
		Seed:         77,
		DataLevel:    true,
		BK:           b,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Peers 0-9 are malaria-heavy, the rest general.
	relations := make([]*Relation, peers)
	for i := 0; i < peers; i++ {
		relations[i] = GeneratePatients(int64(500+i), 60)
		if err := sim.SetLocalData(NodeID(i), relations[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Construct(); err != nil {
		t.Fatal(err)
	}
	if sim.Coverage() != 1 {
		t.Fatalf("coverage = %g", sim.Coverage())
	}

	// Invariant: each domain's global summary covers at least its current
	// members' local weights. It may transiently cover more: a peer that
	// switched to a closer summary peer during construction leaves its
	// merged description in the old global summary until the next
	// reconciliation rebuilds it (§4.1 drop + §4.2.2).
	for _, sp := range sim.SummaryPeerIDs() {
		gs := sim.GlobalSummary(sp)
		if gs == nil {
			t.Fatalf("domain %d has no global summary", sp)
		}
		if err := gs.Validate(); err != nil {
			t.Fatalf("domain %d summary invalid: %v", sp, err)
		}
		var want float64
		for _, m := range sim.DomainMembers(sp) {
			if m == sp {
				continue // SP's own data merges at first reconciliation
			}
			want += float64(relations[m].Len())
		}
		got := gs.Root().Count()
		if got < want-1e-6 {
			t.Errorf("domain %d weight %g below members' %g", sp, got, want)
		}
		// Peer extents of the root cover exactly the contributing members.
		for _, m := range sim.DomainMembers(sp) {
			if m == sp {
				continue
			}
			if !slices.Contains(gs.Root().AppendPeerIDs(nil), PeerID(m)) {
				t.Errorf("domain %d root misses peer %d", sp, m)
			}
		}
	}

	// Query the domain and cross-check peer localization against ground
	// truth: every localized peer must actually hold matching records
	// (fresh summaries: no false positives), and no matching peer of the
	// domain may be missed (no false negatives).
	q, err := Reformulate(b, []string{"age"}, []Predicate{
		{Attr: "disease", Op: Eq, Strs: []string{"tuberculosis"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	origin := sim.RandomClient()
	sp := sim.DomainOf(origin)
	da, err := sim.QueryData(origin, q)
	if err != nil {
		t.Fatal(err)
	}
	members := make(map[NodeID]bool)
	for _, m := range sim.DomainMembers(sp) {
		members[m] = true
	}
	localized := make(map[NodeID]bool)
	for _, p := range da.Peers {
		localized[p] = true
		if p == sp {
			continue
		}
		if !members[p] {
			continue // extents may include peers that drifted to another domain
		}
		found := false
		for _, rec := range relations[p].Records() {
			if MatchRecord(b, relations[p], rec, q) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("peer %d localized but holds no match (false positive with fresh summaries)", p)
		}
	}
	for m := range members {
		if m == sp {
			continue
		}
		for _, rec := range relations[m].Records() {
			if MatchRecord(b, relations[m], rec, q) {
				if !localized[m] {
					t.Errorf("peer %d holds matches but was not localized (false negative)", m)
				}
				break
			}
		}
	}

	// Approximate answer sanity: tuberculosis patients are mid-aged in the
	// generator; the answer must be non-empty and weighted consistently.
	if len(da.Answer.Classes) == 0 {
		t.Fatal("no approximate answer")
	}
	ranked := RankClasses(da.Answer)
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Weight > ranked[i-1].Weight {
			t.Error("RankClasses not sorted")
		}
	}

	// Churn: force staleness, reconcile, re-validate.
	members0 := sim.DomainMembers(sim.SummaryPeerIDs()[0])
	for _, m := range members0[1:] {
		sim.MarkModified(m)
	}
	if sim.Reconciliations() == 0 {
		t.Fatal("no reconciliation after full modification")
	}
	for _, spID := range sim.SummaryPeerIDs() {
		gs := sim.GlobalSummary(spID)
		if err := gs.Validate(); err != nil {
			t.Fatalf("post-reconciliation summary invalid: %v", err)
		}
	}

	// The reconciled summary now includes the SP's own data.
	sp0 := sim.SummaryPeerIDs()[0]
	gs0 := sim.GlobalSummary(sp0)
	var want0 float64
	for _, m := range sim.DomainMembers(sp0) {
		want0 += float64(relations[m].Len())
	}
	if math.Abs(gs0.Root().Count()-want0) > 1e-6 {
		t.Errorf("post-reconciliation weight %g, want %g", gs0.Root().Count(), want0)
	}
}

// TestSummaryDataNeverLeavesDomain checks the paper's headline privacy/
// efficiency property: answering a query approximately transfers zero raw
// records — the answer is derived from descriptor sets and measures alone.
func TestSummaryDataNeverLeavesDomain(t *testing.T) {
	b := MedicalBK()
	rel := GeneratePatients(9, 5000)
	tree, err := Summarize(rel, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Reformulate(b, []string{"age", "bmi"}, []Predicate{
		{Attr: "disease", Op: Eq, Strs: []string{"diabetes"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := AskApproximate(tree, q)
	if err != nil {
		t.Fatal(err)
	}
	// The whole answer must be expressible in BK vocabulary: every label
	// in every class belongs to the BK, and no record id appears.
	for _, c := range ans.Classes {
		for _, set := range c.Answers {
			a := b.Attr(set.Attr)
			if a == nil {
				t.Fatalf("answer mentions unknown attribute %q", set.Attr)
			}
			for _, lab := range set.Labels {
				if !a.HasLabel(lab) {
					t.Fatalf("answer label %q outside the BK", lab)
				}
			}
		}
	}
	// Compression: the summary is orders of magnitude smaller than the
	// data (the paper's motivation for summary-based sharing).
	blob, err := EncodeSummary(tree)
	if err != nil {
		t.Fatal(err)
	}
	var raw strings.Builder
	if err := rel.WriteCSV(&raw); err != nil {
		t.Fatal(err)
	}
	if len(blob) >= raw.Len() {
		t.Errorf("summary (%d B) not smaller than raw data (%d B)", len(blob), raw.Len())
	}

	// Approximate vs exact: the summary's mean age for diabetes patients
	// must sit close to the exact scan (measures are exact aggregates of
	// the matching cells).
	var exactSum float64
	var exactN int
	for _, rec := range rel.Records() {
		if d, _ := rel.Str(rec, "disease"); d == "diabetes" {
			age, _ := rel.Num(rec, "age")
			exactSum += age
			exactN++
		}
	}
	if exactN == 0 {
		t.Skip("no diabetes patients generated")
	}
	exactMean := exactSum / float64(exactN)
	var wSum, wTot float64
	for _, c := range ans.Classes {
		m := c.Measures.Get("age")
		wSum += m.Sum
		wTot += m.Weight
	}
	approxMean := wSum / wTot
	if math.Abs(approxMean-exactMean) > 5 {
		t.Errorf("approximate mean age %g too far from exact %g", approxMean, exactMean)
	}
}
