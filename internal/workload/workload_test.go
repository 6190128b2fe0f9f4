package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"p2psum/internal/sim"
)

func TestLifetimeDistParameters(t *testing.T) {
	d := PaperLifetimes()
	// Lognormal: median = exp(mu), mean = exp(mu + sigma²/2).
	if mean := math.Exp(d.mu + d.sigma*d.sigma/2); math.Abs(mean-3*3600) > 1 {
		t.Errorf("mean = %g, want 10800", mean)
	}
	if median := math.Exp(d.mu); math.Abs(median-3600) > 1 {
		t.Errorf("median = %g, want 3600", median)
	}
}

func TestLifetimeDistSampling(t *testing.T) {
	d := PaperLifetimes()
	rng := rand.New(rand.NewSource(1))
	n := 200000
	var sum float64
	vals := make([]float64, n)
	for i := range vals {
		v := float64(d.Draw(rng))
		if v <= 0 {
			t.Fatal("non-positive lifetime")
		}
		vals[i] = v
		sum += v
	}
	mean := sum / float64(n)
	// Lognormal sample means converge slowly; accept 10%.
	if mean < 0.9*3*3600 || mean > 1.1*3*3600 {
		t.Errorf("sample mean %g, want ~10800", mean)
	}
	// Median via counting below the analytic median.
	below := 0
	for _, v := range vals {
		if v < 3600 {
			below++
		}
	}
	frac := float64(below) / float64(n)
	if frac < 0.48 || frac > 0.52 {
		t.Errorf("fraction below median = %g, want ~0.5 (skewed as Table 3)", frac)
	}
}

func TestNewLifetimeDistErrors(t *testing.T) {
	if _, err := NewLifetimeDist(100, 200); err == nil {
		t.Error("mean < median accepted")
	}
	if _, err := NewLifetimeDist(100, 0); err == nil {
		t.Error("median 0 accepted")
	}
	if _, err := NewLifetimeDist(100, 100); err == nil {
		t.Error("mean == median accepted (no skew)")
	}
}

func TestExpInterarrival(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var sum sim.Time
	n := 100000
	for i := 0; i < n; i++ {
		sum += ExpInterarrival(rng, QueryRate)
	}
	mean := float64(sum) / float64(n)
	want := 1.0 / QueryRate // 1200 s
	if mean < 0.95*want || mean > 1.05*want {
		t.Errorf("mean interarrival %g, want ~%g", mean, want)
	}
	if ExpInterarrival(rng, 0) != sim.End {
		t.Error("zero rate should never fire")
	}
}

func TestMatchSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ms := MatchSet(rng, 500, 0.10)
	if len(ms) != 50 {
		t.Errorf("match set size = %d, want 50", len(ms))
	}
	for id := range ms {
		if id < 0 || id >= 500 {
			t.Fatalf("id %d out of range", id)
		}
	}
	// Tiny populations still match at least one peer.
	if len(MatchSet(rng, 3, 0.01)) != 1 {
		t.Error("minimum match size violated")
	}
	// Fraction above 1 clamps to the population.
	if len(MatchSet(rng, 10, 2)) != 10 {
		t.Error("overfull match set not clamped")
	}
}

func TestClusteredMatchSet(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ms := ClusteredMatchSet(rng, 1000, 0.10, 0.9)
	if len(ms) != 100 {
		t.Errorf("size = %d", len(ms))
	}
	for id := range ms {
		if id < 0 || id >= 1000 {
			t.Fatalf("id %d out of range", id)
		}
	}
}

func TestChurnPlan(t *testing.T) {
	c := &Churn{Lifetimes: PaperLifetimes(), OfflineFactor: 0.5}
	rng := rand.New(rand.NewSource(5))
	horizon := sim.Hours(24)
	sessions := c.Plan(rng, 50, horizon)
	if len(sessions) < 50 {
		t.Fatalf("only %d sessions for 50 peers", len(sessions))
	}
	perPeer := make(map[int][]Session)
	for _, s := range sessions {
		if s.Start < 0 || s.End > horizon || s.End < s.Start {
			t.Fatalf("bad session %+v", s)
		}
		perPeer[s.Peer] = append(perPeer[s.Peer], s)
	}
	if len(perPeer) != 50 {
		t.Errorf("peers covered = %d", len(perPeer))
	}
	// Sessions of one peer must not overlap and must be ordered.
	for p, ss := range perPeer {
		for i := 1; i < len(ss); i++ {
			if ss[i].Start < ss[i-1].End {
				t.Fatalf("peer %d sessions overlap: %+v then %+v", p, ss[i-1], ss[i])
			}
		}
	}
	// Ordered globally by start time.
	for i := 1; i < len(sessions); i++ {
		if sessions[i].Start < sessions[i-1].Start {
			t.Fatal("sessions not sorted")
		}
	}
}

func TestChurnNoOffline(t *testing.T) {
	c := &Churn{Lifetimes: PaperLifetimes(), OfflineFactor: 0}
	sessions := c.Plan(rand.New(rand.NewSource(6)), 10, sim.Hours(1000))
	if len(sessions) != 10 {
		t.Errorf("OfflineFactor=0 should yield exactly one session per peer, got %d", len(sessions))
	}
}

func TestModificationProcess(t *testing.T) {
	m := PaperModification()
	rng := rand.New(rand.NewSource(7))
	n, changed := 100000, 0
	for i := 0; i < n; i++ {
		if m.Changed(rng) {
			changed++
		}
	}
	frac := float64(changed) / float64(n)
	if math.Abs(frac-1.0/4.5) > 0.01 {
		t.Errorf("change fraction = %g, want ~%g", frac, 1.0/4.5)
	}
}

// Property: match sets have exactly the requested clamped size and unique
// members.
func TestQuickMatchSetSize(t *testing.T) {
	f := func(seed int64, nRaw uint16, fRaw uint8) bool {
		n := int(nRaw%2000) + 1
		frac := float64(fRaw%100) / 100
		rng := rand.New(rand.NewSource(seed))
		ms := MatchSet(rng, n, frac)
		k := int(math.Round(frac * float64(n)))
		if k < 1 {
			k = 1
		}
		if k > n {
			k = n
		}
		return len(ms) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: drawn lifetimes are positive and finite.
func TestQuickLifetimesPositive(t *testing.T) {
	d := PaperLifetimes()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			v := float64(d.Draw(rng))
			if v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAnalyzeAvailability(t *testing.T) {
	c := &Churn{Lifetimes: PaperLifetimes(), OfflineFactor: 0.5}
	rng := rand.New(rand.NewSource(8))
	horizon := sim.Hours(48)
	n := 200
	sessions := c.Plan(rng, n, horizon)
	st := Analyze(sessions, n, horizon)
	if st.Sessions != len(sessions) {
		t.Errorf("Sessions = %d", st.Sessions)
	}
	// Session statistics should track the lognormal (3h mean, 1h median),
	// shortened somewhat by horizon truncation.
	if st.MeanSessionSec < 3600 || st.MeanSessionSec > 4*3600 {
		t.Errorf("mean session = %.0fs, want near 10800", st.MeanSessionSec)
	}
	if st.MedianSessionSec < 1800 || st.MedianSessionSec > 2*3600 {
		t.Errorf("median session = %.0fs, want near 3600", st.MedianSessionSec)
	}
	// OfflineFactor 0.5 means ~2/3 uptime in steady state.
	if st.UptimeFraction < 0.5 || st.UptimeFraction > 0.85 {
		t.Errorf("uptime = %g, want ~2/3", st.UptimeFraction)
	}
	if st.MaxOnline > n || st.MinOnline < 0 {
		t.Errorf("online range [%d,%d] out of bounds", st.MinOnline, st.MaxOnline)
	}
	// Degenerate inputs.
	empty := Analyze(nil, 0, 0)
	if empty.Sessions != 0 || empty.UptimeFraction != 0 {
		t.Errorf("empty analyze: %+v", empty)
	}
}
