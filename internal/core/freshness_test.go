package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"p2psum/internal/p2p"
)

// refList is the map-based cooperation list the sorted table replaced,
// kept as the reference the table must agree with: every query walks the
// map (sorting where the result is ordered) and the trigger sums floats.
type refList struct {
	mode    Mode
	entries map[p2p.NodeID]Freshness
}

func newRefList(mode Mode) *refList {
	return &refList{mode: mode, entries: make(map[p2p.NodeID]Freshness)}
}

func (r *refList) Set(p p2p.NodeID, v Freshness) {
	if r.mode == OneBit && v == Unavailable {
		v = Stale
	}
	r.entries[p] = v
}

func (r *refList) Remove(p p2p.NodeID) { delete(r.entries, p) }

func (r *refList) Partners() []p2p.NodeID {
	out := make([]p2p.NodeID, 0, len(r.entries))
	for p := range r.entries {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (r *refList) withValue(want func(Freshness) bool) []p2p.NodeID {
	var out []p2p.NodeID
	for p, v := range r.entries {
		if want(v) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (r *refList) StaleFraction() float64 {
	if len(r.entries) == 0 {
		return 0
	}
	var sum float64
	for _, v := range r.entries {
		sum += float64(v)
	}
	return sum / float64(len(r.entries))
}

func (r *refList) ResetAll() {
	for p := range r.entries {
		r.entries[p] = Fresh
	}
}

// settle is the end of a ring as completeReconcile ran it over the map:
// a membership set of the merged ids, then Set/Remove per partner.
func (r *refList) settle(merged []p2p.NodeID, keep func(p2p.NodeID) bool) {
	in := make(map[p2p.NodeID]bool, len(merged))
	for _, id := range merged {
		in[id] = true
	}
	for _, id := range r.Partners() {
		switch {
		case in[id]:
			r.Set(id, Fresh)
		case keep(id):
			r.Set(id, Stale)
		default:
			r.Remove(id)
		}
	}
}

func (r *refList) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "CL{%d:", len(r.entries))
	for _, p := range r.Partners() {
		fmt.Fprintf(&sb, " %d=%s", p, r.entries[p])
	}
	sb.WriteString("}")
	return sb.String()
}

// oracleIDs bounds the id space of the random sequences so Set, Remove
// and settle keep hitting existing partners.
const oracleIDs = 40

// randMerged draws a ring's Merged list: mostly partners plus some
// non-partners, ascending as a ring builds it, or shuffled (as an
// untrusted decoded frame may be), optionally with repeated ids.
func randMerged(rng *rand.Rand, partners []p2p.NodeID) []p2p.NodeID {
	var merged []p2p.NodeID
	for _, id := range partners {
		if rng.Intn(3) > 0 {
			merged = append(merged, id)
		}
	}
	for k := rng.Intn(3); k > 0; k-- {
		merged = append(merged, p2p.NodeID(rng.Intn(oracleIDs)))
	}
	if rng.Intn(3) == 0 && len(merged) > 0 {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			merged = append(merged, merged[rng.Intn(len(merged))])
		}
	}
	switch rng.Intn(3) {
	case 0:
		sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	case 1:
		rng.Shuffle(len(merged), func(i, j int) { merged[i], merged[j] = merged[j], merged[i] })
	default:
		// A sorted list with one adjacent pair swapped: unsorted, but only
		// barely, so a single pass that trusted the order would misplace
		// exactly one id.
		sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
		if len(merged) > 1 {
			i := rng.Intn(len(merged) - 1)
			merged[i], merged[i+1] = merged[i+1], merged[i]
		}
	}
	return merged
}

// TestCooperationListMatchesReference drives the sorted table and the
// map-based reference through the same seeded random sequences of Set,
// Remove, ResetAll and settle in both modes, and requires every accessor
// to agree after every step — StaleFraction compared with ==.
func TestCooperationListMatchesReference(t *testing.T) {
	const sequences = 5000
	for _, mode := range []Mode{OneBit, TwoBit} {
		for seq := 0; seq < sequences; seq++ {
			rng := rand.New(rand.NewSource(int64(seq)))
			cl, ref := NewCooperationList(mode), newRefList(mode)
			steps := 1 + rng.Intn(24)
			for step := 0; step < steps; step++ {
				var op string
				switch k := rng.Intn(20); {
				case k < 12:
					id, v := p2p.NodeID(rng.Intn(oracleIDs)), Freshness(rng.Intn(3))
					op = fmt.Sprintf("Set(%d, %s)", id, v)
					cl.Set(id, v)
					ref.Set(id, v)
				case k < 15:
					id := p2p.NodeID(rng.Intn(oracleIDs))
					op = fmt.Sprintf("Remove(%d)", id)
					cl.Remove(id)
					ref.Remove(id)
				case k < 16:
					op = "ResetAll()"
					cl.ResetAll()
					ref.ResetAll()
				default:
					merged := randMerged(rng, ref.Partners())
					salt := rng.Int()
					keep := func(id p2p.NodeID) bool { return (int(id)*7+salt)%3 == 0 }
					op = fmt.Sprintf("settle(%v)", merged)
					arg := append([]p2p.NodeID(nil), merged...)
					cl.settle(arg, keep)
					if !reflect.DeepEqual(arg, merged) {
						t.Fatalf("mode %d seq %d: settle mutated its input %v -> %v", mode, seq, merged, arg)
					}
					ref.settle(merged, keep)
				}
				if err := compareLists(cl, ref); err != nil {
					t.Fatalf("mode %d seq %d step %d after %s: %v", mode, seq, step, op, err)
				}
			}
		}
	}
}

func compareLists(cl *CooperationList, ref *refList) error {
	if got, want := cl.StaleFraction(), ref.StaleFraction(); got != want {
		return fmt.Errorf("StaleFraction %v, reference %v", got, want)
	}
	if got, want := cl.Len(), len(ref.entries); got != want {
		return fmt.Errorf("Len %d, reference %d", got, want)
	}
	for id := p2p.NodeID(-1); id <= oracleIDs; id++ {
		wantV, wantOK := ref.entries[id]
		if cl.Has(id) != wantOK {
			return fmt.Errorf("Has(%d) = %v, reference %v", id, !wantOK, wantOK)
		}
		if v, ok := cl.Get(id); v != wantV || ok != wantOK {
			return fmt.Errorf("Get(%d) = %v,%v, reference %v,%v", id, v, ok, wantV, wantOK)
		}
	}
	if got, want := cl.Partners(), ref.Partners(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("Partners %v, reference %v", got, want)
	}
	if got, want := cl.FreshPeers(), ref.withValue(func(v Freshness) bool { return v == Fresh }); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("FreshPeers %v, reference %v", got, want)
	}
	if got, want := cl.StalePeers(), ref.withValue(func(v Freshness) bool { return v != Fresh }); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("StalePeers %v, reference %v", got, want)
	}
	if got, want := cl.String(), ref.String(); got != want {
		return fmt.Errorf("String %q, reference %q", got, want)
	}
	return nil
}

// BenchmarkCooperationListPush measures what one §4.2.1 push costs the
// summary peer's table: update an existing partner's value, then evaluate
// the α trigger. CI gates it at 0 allocs.
func BenchmarkCooperationListPush(b *testing.B) {
	const partners = 500
	cl := NewCooperationList(OneBit)
	for id := 0; id < partners; id++ {
		cl.Set(p2p.NodeID(id*3), Fresh)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		cl.Set(p2p.NodeID((i*7919)%partners*3), Freshness(i&1))
		sink += cl.StaleFraction()
	}
	if sink < 0 {
		b.Fatal(sink)
	}
}
