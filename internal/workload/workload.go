// Package workload generates the evaluation workload of Table 3: skewed
// (lognormal) peer session lifetimes with a 3-hour mean and 1-hour median,
// Poisson query arrivals at 1 query per node per 20 minutes, query match
// sets covering 10% of the peers, and local-summary modification processes.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"p2psum/internal/sim"
)

// LifetimeDist draws peer session lifetimes. The paper: "local summary
// lifetimes, like node lifetimes, follow a skewed distribution with a mean
// value of 3 hours, and a median value of 60 minutes" (§6.2.1).
type LifetimeDist struct {
	mu, sigma float64 // lognormal parameters
}

// NewLifetimeDist builds a lognormal distribution with the given mean and
// median (both in seconds). The lognormal is the standard skewed model:
// median = exp(mu), mean = exp(mu + sigma²/2).
func NewLifetimeDist(mean, median float64) (*LifetimeDist, error) {
	if median <= 0 || mean <= median {
		return nil, fmt.Errorf("workload: need mean > median > 0, got mean=%g median=%g", mean, median)
	}
	mu := math.Log(median)
	sigma := math.Sqrt(2 * math.Log(mean/median))
	return &LifetimeDist{mu: mu, sigma: sigma}, nil
}

// PaperLifetimes returns the Table 3 distribution: mean 3 h, median 1 h.
func PaperLifetimes() *LifetimeDist {
	d, err := NewLifetimeDist(3*3600, 3600)
	if err != nil {
		panic(err) // static parameters; cannot fail
	}
	return d
}

// Draw samples one lifetime (seconds of virtual time).
func (d *LifetimeDist) Draw(rng *rand.Rand) sim.Time {
	return sim.Time(math.Exp(d.mu + d.sigma*rng.NormFloat64()))
}

// QueryRate is the paper's workload rate: 1 query per node per 20 minutes
// (0.00083 queries per node per second, after [5]).
const QueryRate = 1.0 / (20 * 60)

// ExpInterarrival draws an exponential interarrival time for the given rate
// (events per second).
func ExpInterarrival(rng *rand.Rand, rate float64) sim.Time {
	if rate <= 0 {
		return sim.End
	}
	return sim.Time(rng.ExpFloat64() / rate)
}

// MatchSet draws the ground-truth matching peers of a query: each query "is
// matched by 10% of the total number of peers" (Table 3). The hit fraction
// is configurable for sensitivity experiments. At least one peer matches.
func MatchSet(rng *rand.Rand, nPeers int, hitFraction float64) map[int]bool {
	k := int(math.Round(hitFraction * float64(nPeers)))
	if k < 1 {
		k = 1
	}
	if k > nPeers {
		k = nPeers
	}
	// Partial Fisher-Yates over the peer ids.
	ids := make([]int, nPeers)
	for i := range ids {
		ids[i] = i
	}
	out := make(map[int]bool, k)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(nPeers-i)
		ids[i], ids[j] = ids[j], ids[i]
		out[ids[i]] = true
	}
	return out
}

// ClusteredMatchSet draws a match set with group locality (§5.2.2: "users
// tend to work in groups ... results are supposed to be nearby"): matches
// concentrate in a contiguous id window with a fraction of uniform
// stragglers.
func ClusteredMatchSet(rng *rand.Rand, nPeers int, hitFraction, locality float64) map[int]bool {
	k := int(math.Round(hitFraction * float64(nPeers)))
	if k < 1 {
		k = 1
	}
	if k > nPeers {
		k = nPeers
	}
	out := make(map[int]bool, k)
	start := rng.Intn(nPeers)
	window := k * 3
	if window < 1 {
		window = 1
	}
	for len(out) < k {
		if rng.Float64() < locality {
			out[(start+rng.Intn(window))%nPeers] = true
		} else {
			out[rng.Intn(nPeers)] = true
		}
	}
	return out
}

// Churn schedules join/leave sessions for peers. Each peer cycles through
// online sessions (drawn from the lifetime distribution) separated by
// offline gaps (a fixed fraction of the lifetime scale by default).
type Churn struct {
	Lifetimes *LifetimeDist
	// OfflineFactor scales the offline gap relative to the drawn session
	// length (0.5 means peers stay offline half as long as they stay
	// online). Zero keeps peers permanently online after their first join.
	OfflineFactor float64
}

// Session is one online interval of a peer.
type Session struct {
	Peer  int
	Start sim.Time
	End   sim.Time
}

// Plan precomputes the online sessions of every peer over the horizon.
// Peers all start online at time zero (the paper constructs domains first,
// then studies maintenance under volatility).
func (c *Churn) Plan(rng *rand.Rand, nPeers int, horizon sim.Time) []Session {
	var out []Session
	for p := 0; p < nPeers; p++ {
		t := sim.Time(0)
		for t < horizon {
			life := c.Lifetimes.Draw(rng)
			end := t + life
			if end > horizon {
				end = horizon
			}
			out = append(out, Session{Peer: p, Start: t, End: end})
			if c.OfflineFactor <= 0 {
				break
			}
			t = end + sim.Time(c.OfflineFactor*float64(life))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Peer < out[j].Peer
	})
	return out
}

// BurstArrivals shapes a flash crowd: n arrival offsets within
// [0, spread], front-loaded — the bulk of the crowd lands in the first
// fraction of the window and a thinning exponential tail of stragglers
// fills the rest, the empirical shape of flash-crowd joins (a publicized
// resource draws an immediate spike that decays). Offsets are returned
// ascending; spread <= 0 degenerates to n simultaneous arrivals.
func BurstArrivals(rng *rand.Rand, n int, spread sim.Time) []sim.Time {
	out := make([]sim.Time, n)
	if spread <= 0 {
		return out
	}
	for i := range out {
		// Exponential with mean spread/4, truncated at the window end:
		// ~63% of arrivals in the first quarter, stragglers to the edge.
		off := sim.Time(rng.ExpFloat64() * float64(spread) / 4)
		if off > spread {
			off = spread
		}
		out[i] = off
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ModificationProcess models local-database update pressure: the probability
// that, by the time a peer's freshness bit is stale, its database content
// has actually changed relative to a given query (§6.2.2 uses this to turn
// worst-case staleness into the "real estimation" of Figure 5).
type ModificationProcess struct {
	// ChangeProb is the probability that a stale-flagged peer's data
	// actually changed w.r.t. a random query.
	ChangeProb float64
}

// PaperModification returns the process calibrated to the paper's reported
// reduction: the real stale fraction is ~4.5x below the worst case, so a
// stale flag corresponds to an actual change with probability ~1/4.5.
func PaperModification() ModificationProcess {
	return ModificationProcess{ChangeProb: 1.0 / 4.5}
}

// Changed draws whether a stale-flagged peer really changed.
func (m ModificationProcess) Changed(rng *rand.Rand) bool {
	return rng.Float64() < m.ChangeProb
}
