package workload

import (
	"sort"

	"p2psum/internal/sim"
)

// AvailabilityStats summarizes a churn plan: how much of the horizon peers
// spend online, and how the concurrently-online population evolves. The
// experiments use it to verify that the synthetic churn reproduces the
// Table 3 session statistics before trusting the downstream measurements.
type AvailabilityStats struct {
	Peers   int
	Horizon sim.Time
	// Sessions is the total number of online intervals.
	Sessions int
	// MeanSessionSec / MedianSessionSec describe the observed session
	// lengths (should track the lognormal's 3h mean / 1h median).
	MeanSessionSec   float64
	MedianSessionSec float64
	// UptimeFraction is the mean fraction of the horizon a peer is online.
	UptimeFraction float64
	// MinOnline / MaxOnline bound the concurrently-online population
	// sampled at session boundaries.
	MinOnline int
	MaxOnline int
}

// Analyze computes availability statistics from a churn plan.
func Analyze(sessions []Session, nPeers int, horizon sim.Time) AvailabilityStats {
	st := AvailabilityStats{Peers: nPeers, Horizon: horizon, Sessions: len(sessions)}
	if len(sessions) == 0 || nPeers == 0 || horizon <= 0 {
		return st
	}
	lengths := make([]float64, 0, len(sessions))
	var onlineTotal float64
	type event struct {
		at sim.Time
		d  int
	}
	events := make([]event, 0, 2*len(sessions))
	for _, s := range sessions {
		l := float64(s.End - s.Start)
		lengths = append(lengths, l)
		onlineTotal += l
		events = append(events, event{s.Start, +1}, event{s.End, -1})
	}
	sort.Float64s(lengths)
	var sum float64
	for _, l := range lengths {
		sum += l
	}
	st.MeanSessionSec = sum / float64(len(lengths))
	st.MedianSessionSec = lengths[len(lengths)/2]
	st.UptimeFraction = onlineTotal / (float64(horizon) * float64(nPeers))

	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		// Ends before starts at equal timestamps (sessions are half-open).
		return events[i].d < events[j].d
	})
	online, min, max := 0, nPeers, 0
	for _, e := range events {
		online += e.d
		if online < min {
			min = online
		}
		if online > max {
			max = online
		}
	}
	st.MinOnline, st.MaxOnline = min, max
	return st
}
