// Package stats provides the measurement plumbing of the evaluation layer:
// message counters by type, accuracy accounting (false positives/negatives,
// precision, recall), running summaries, data series and plain-text tables
// in the style of the paper's figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter tallies named events (message types, operator applications...).
type Counter struct {
	counts map[string]int64
}

// NewCounter creates an empty counter.
func NewCounter() *Counter { return &Counter{counts: make(map[string]int64)} }

// Add adds n to the named event.
func (c *Counter) Add(name string, n int64) { c.counts[name] += n }

// Get returns the count of the named event.
func (c *Counter) Get(name string) int64 { return c.counts[name] }

// Total returns the sum over all events.
func (c *Counter) Total() int64 {
	var t int64
	for _, v := range c.counts {
		t += v
	}
	return t
}

// TotalOf sums the given event names.
func (c *Counter) TotalOf(names ...string) int64 {
	var t int64
	for _, n := range names {
		t += c.counts[n]
	}
	return t
}

// Names returns the event names, sorted.
func (c *Counter) Names() []string {
	out := make([]string, 0, len(c.counts))
	for k := range c.counts {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// String renders "a=3 b=1".
func (c *Counter) String() string {
	parts := make([]string, 0, len(c.counts))
	for _, k := range c.Names() {
		parts = append(parts, fmt.Sprintf("%s=%d", k, c.counts[k]))
	}
	return strings.Join(parts, " ")
}

// Running accumulates a stream of float64 observations.
type Running struct {
	n        int
	sum, min float64
}

// NewRunning creates an empty accumulator.
func NewRunning() *Running { return &Running{min: math.Inf(1)} }

// Observe folds one value in.
func (r *Running) Observe(x float64) {
	r.n++
	r.sum += x
	if x < r.min {
		r.min = x
	}
}

// Mean returns the sample mean (0 when empty).
func (r *Running) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// Min returns the smallest observation (+Inf when empty).
func (r *Running) Min() float64 { return r.min }

// Accuracy accumulates retrieval accounting: relevant (ground truth),
// returned (what the system produced), and their overlap.
type Accuracy struct {
	TruePositives  int
	FalsePositives int
	FalseNegatives int
}

// ObserveSets folds one query's outcome given the returned and relevant
// sets (keyed by any comparable id).
func (a *Accuracy) ObserveSets(returned, relevant map[int]bool) {
	for id := range returned {
		if relevant[id] {
			a.TruePositives++
		} else {
			a.FalsePositives++
		}
	}
	for id := range relevant {
		if !returned[id] {
			a.FalseNegatives++
		}
	}
}

// Precision returns TP / (TP + FP), 1 when nothing was returned.
func (a Accuracy) Precision() float64 {
	d := a.TruePositives + a.FalsePositives
	if d == 0 {
		return 1
	}
	return float64(a.TruePositives) / float64(d)
}

// Recall returns TP / (TP + FN), 1 when nothing was relevant.
func (a Accuracy) Recall() float64 {
	d := a.TruePositives + a.FalseNegatives
	if d == 0 {
		return 1
	}
	return float64(a.TruePositives) / float64(d)
}

// Merge folds another accumulator in.
func (a *Accuracy) Merge(o Accuracy) {
	a.TruePositives += o.TruePositives
	a.FalsePositives += o.FalsePositives
	a.FalseNegatives += o.FalseNegatives
}

// Point is one (x, y) observation of a series.
type Point struct {
	X, Y float64
}

// Series is a named sequence of points (one curve of a figure).
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// YAt returns the y value at the given x (exact match), or NaN.
func (s *Series) YAt(x float64) float64 {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y
		}
	}
	return math.NaN()
}

// Table is a plain-text rendering of a figure/table: one labeled row per x
// value, one column per series.
type Table struct {
	Title   string
	XLabel  string
	Series  []*Series
	Notes   []string
	Decimal int // y decimal places (default 2)
}

// NewTable creates a table with the given title and x-axis label.
func NewTable(title, xlabel string, series ...*Series) *Table {
	return &Table{Title: title, XLabel: xlabel, Series: series, Decimal: 2}
}

// AddNote appends a free-text note printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table.
func (t *Table) String() string {
	dec := t.Decimal
	if dec <= 0 {
		dec = 2
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	// Collect the x values in order of first appearance.
	seen := make(map[float64]bool)
	var xs []float64
	for _, s := range t.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	// Header.
	fmt.Fprintf(&sb, "%-12s", t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&sb, "  %16s", s.Name)
	}
	sb.WriteString("\n")
	for _, x := range xs {
		fmt.Fprintf(&sb, "%-12g", x)
		for _, s := range t.Series {
			y := s.YAt(x)
			if math.IsNaN(y) {
				fmt.Fprintf(&sb, "  %16s", "-")
			} else {
				fmt.Fprintf(&sb, "  %16.*f", dec, y)
			}
		}
		sb.WriteString("\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Ratio returns a/b guarding against zero denominators.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
