package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Inc("push")
	c.Inc("push")
	c.Add("query", 5)
	if c.Get("push") != 2 || c.Get("query") != 5 || c.Get("ghost") != 0 {
		t.Errorf("counts wrong: %s", c)
	}
	if c.Total() != 7 {
		t.Errorf("Total = %d", c.Total())
	}
	if c.TotalOf("push", "ghost") != 2 {
		t.Errorf("TotalOf = %d", c.TotalOf("push", "ghost"))
	}
	if got := c.Names(); len(got) != 2 || got[0] != "push" || got[1] != "query" {
		t.Errorf("Names = %v", got)
	}
	if s := c.String(); !strings.Contains(s, "push=2") {
		t.Errorf("String = %q", s)
	}
}

func TestRunning(t *testing.T) {
	r := NewRunning()
	if r.Mean() != 0 || r.Std() != 0 || r.N() != 0 {
		t.Error("empty running wrong")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Observe(x)
	}
	if r.N() != 8 || r.Mean() != 5 {
		t.Errorf("N=%d mean=%g", r.N(), r.Mean())
	}
	if math.Abs(r.Std()-2) > 1e-9 {
		t.Errorf("Std = %g, want 2", r.Std())
	}
	if r.Min() != 2 || r.Max() != 9 || r.Sum() != 40 {
		t.Errorf("min/max/sum = %g/%g/%g", r.Min(), r.Max(), r.Sum())
	}
}

func TestAccuracy(t *testing.T) {
	var a Accuracy
	returned := map[int]bool{1: true, 2: true, 3: true}
	relevant := map[int]bool{2: true, 3: true, 4: true}
	a.ObserveSets(returned, relevant)
	if a.TruePositives != 2 || a.FalsePositives != 1 || a.FalseNegatives != 1 {
		t.Errorf("accounting wrong: %+v", a)
	}
	if math.Abs(a.Precision()-2.0/3) > 1e-9 {
		t.Errorf("Precision = %g", a.Precision())
	}
	if math.Abs(a.Recall()-2.0/3) > 1e-9 {
		t.Errorf("Recall = %g", a.Recall())
	}
	if math.Abs(a.FalsePositiveRate()-1.0/3) > 1e-9 {
		t.Errorf("FPR = %g", a.FalsePositiveRate())
	}
	if math.Abs(a.FalseNegativeRate()-1.0/3) > 1e-9 {
		t.Errorf("FNR = %g", a.FalseNegativeRate())
	}
	if math.Abs(a.StaleRate()-0.5) > 1e-9 {
		t.Errorf("StaleRate = %g", a.StaleRate())
	}
	var b Accuracy
	b.Merge(a)
	if b != a {
		t.Error("Merge wrong")
	}
	var empty Accuracy
	if empty.Precision() != 1 || empty.Recall() != 1 || empty.StaleRate() != 0 {
		t.Error("empty accuracy degenerate values wrong")
	}
	if empty.FalsePositiveRate() != 0 || empty.FalseNegativeRate() != 0 {
		t.Error("empty rates wrong")
	}
}

func TestSeriesAndTable(t *testing.T) {
	s1 := &Series{Name: "sq"}
	s1.Add(100, 10)
	s1.Add(200, 20)
	s2 := &Series{Name: "flood"}
	s2.Add(100, 50)
	tbl := NewTable("Figure 7", "peers", s1, s2)
	tbl.AddNote("ratio at 100 peers: %g", 5.0)
	out := tbl.String()
	if !strings.Contains(out, "Figure 7") || !strings.Contains(out, "sq") || !strings.Contains(out, "flood") {
		t.Errorf("table header missing:\n%s", out)
	}
	if !strings.Contains(out, "note: ratio at 100 peers: 5") {
		t.Errorf("note missing:\n%s", out)
	}
	// Missing y values render as "-".
	if !strings.Contains(out, "-") {
		t.Errorf("missing value placeholder absent:\n%s", out)
	}
	if !math.IsNaN(s2.YAt(200)) {
		t.Error("YAt missing x should be NaN")
	}
	if s1.YAt(200) != 20 {
		t.Error("YAt wrong")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(10, 2) != 5 || Ratio(1, 0) != 0 {
		t.Error("Ratio wrong")
	}
}

// Property: precision and recall always live in [0, 1].
func TestQuickAccuracyRange(t *testing.T) {
	f := func(tp, fp, fn uint8) bool {
		a := Accuracy{TruePositives: int(tp), FalsePositives: int(fp), FalseNegatives: int(fn)}
		for _, v := range []float64{a.Precision(), a.Recall(), a.FalsePositiveRate(), a.FalseNegativeRate(), a.StaleRate()} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Running.Mean always lies between Min and Max.
func TestQuickRunningBounds(t *testing.T) {
	f := func(xs []float64) bool {
		r := NewRunning()
		any := false
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			x = math.Mod(x, 1e9)
			r.Observe(x)
			any = true
		}
		if !any {
			return true
		}
		return r.Mean() >= r.Min()-1e-9 && r.Mean() <= r.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
