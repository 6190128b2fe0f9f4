package query

import (
	"sort"

	"p2psum/internal/saintetiq"
)

// Graded valuation, following the FQAS'04 valuation function [31] the
// paper builds on: beyond the boolean satisfied/partial/not qualification,
// each summary gets a satisfaction degree in [0, 1] derived from the
// membership grades of its descriptors — a summary whose matching
// descriptors fit the data only weakly (e.g. 0.3/adult) satisfies the
// query to a lower degree than one whose descriptors fit perfectly.

// GradedSummary pairs a selected summary with its satisfaction degree.
type GradedSummary struct {
	Node saintetiq.Node
	// Degree is the conjunctive satisfaction: the minimum over clauses of
	// the best membership grade among the intent descriptors matching the
	// clause.
	Degree float64
	// Weight is the summary's tuple weight, for ranking.
	Weight float64
}

// Grade computes the satisfaction degree of every selected summary and
// returns them ranked by degree (ties: heavier summaries first, then
// node id for determinism).
func Grade(t *saintetiq.Tree, q Query, sel *Selection) ([]GradedSummary, error) {
	c, err := compile(t, q)
	if err != nil {
		return nil, err
	}
	return c.grade(sel), nil
}

// grade computes satisfaction degrees with a pre-compiled proposition
// (vocabulary-level, shared across shards) and ranks the result.
func (c *compiled) grade(sel *Selection) []GradedSummary {
	out := make([]GradedSummary, 0, len(sel.Summaries))
	for _, z := range sel.Summaries {
		deg := 1.0
		for i, a := range c.attrs {
			best := 0.0
			for _, j := range c.labels[i] {
				if z.HasLabel(a, j) {
					if g := z.Grade(a, j); g > best {
						best = g
					}
				}
			}
			if best < deg {
				deg = best
			}
		}
		out = append(out, GradedSummary{Node: z, Degree: deg, Weight: z.Count()})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Degree != out[j].Degree {
			return out[i].Degree > out[j].Degree
		}
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Node.ID() < out[j].Node.ID()
	})
	return out
}

// TopK evaluates the query and returns the K best-satisfying summaries
// (all of them when k <= 0 or k exceeds the selection).
func TopK(t *saintetiq.Tree, q Query, k int) ([]GradedSummary, error) {
	sel, err := Select(t, q)
	if err != nil {
		return nil, err
	}
	graded, err := Grade(t, q, sel)
	if err != nil {
		return nil, err
	}
	if k > 0 && k < len(graded) {
		graded = graded[:k]
	}
	return graded, nil
}

// RankClasses orders the classes of an approximate answer by decreasing
// weight (the dominant interpretation first), preserving the answer's
// content. It returns a new slice; the Answer is not mutated.
func RankClasses(a *Answer) []Class {
	out := append([]Class(nil), a.Classes...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Weight > out[j].Weight })
	return out
}
