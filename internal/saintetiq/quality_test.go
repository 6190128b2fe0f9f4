package saintetiq

import (
	"strings"
	"testing"

	"p2psum/internal/bk"
)

func builtTree(t *testing.T, seed int64, n int) *Tree {
	t.Helper()
	tr := New(bk.Medical(), DefaultConfig())
	if err := tr.IncorporateStore(medicalStore(t, seed, n), 1); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestMeasureQuality(t *testing.T) {
	tr := builtTree(t, 90, 800)
	q := tr.Measure()
	if q.Nodes != tr.NodeCount() || q.Leaves != tr.LeafCount() || q.Depth != tr.Depth() {
		t.Errorf("shape metrics inconsistent: %+v", q)
	}
	if q.Homogeneity <= 0 || q.Homogeneity > 1 {
		t.Errorf("homogeneity = %g out of (0,1]", q.Homogeneity)
	}
	if q.Specificity < 0 || q.Specificity > 1 {
		t.Errorf("specificity = %g out of [0,1]", q.Specificity)
	}
	if q.String() == "" {
		t.Error("String empty")
	}
	// Leaves are single cells: purity 1. So homogeneity strictly above the
	// root's purity.
	rootPurity := tr.nodePurity(root)
	if q.Homogeneity <= rootPurity {
		t.Errorf("homogeneity %g not above root purity %g", q.Homogeneity, rootPurity)
	}
	// Empty tree metrics are well-defined.
	empty := New(bk.Medical(), DefaultConfig())
	eq := empty.Measure()
	if eq.Nodes != 1 || eq.Homogeneity != 0 {
		t.Errorf("empty metrics: %+v", eq)
	}
}

func TestLevelCoversExtent(t *testing.T) {
	tr := builtTree(t, 91, 600)
	for depth := 0; depth <= tr.Depth(); depth++ {
		nodes := tr.Level(depth)
		var w float64
		for _, n := range nodes {
			w += n.Count()
		}
		if !almost(w, tr.Root().Count()) {
			t.Errorf("level %d covers weight %g, want %g", depth, w, tr.Root().Count())
		}
	}
	if got := tr.Level(0); len(got) != 1 || got[0] != tr.Root() {
		t.Error("level 0 is not the root")
	}
}

func TestDescribeLevel(t *testing.T) {
	tr := builtTree(t, 92, 500)
	out := tr.DescribeLevel(1)
	if !strings.Contains(out, "%") {
		t.Errorf("DescribeLevel output unexpected:\n%s", out)
	}
	// Heaviest line first.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 {
		t.Skip("hierarchy too flat")
	}
	if lines[0] < lines[1] && !strings.HasPrefix(lines[0], " ") {
		// Percentages are right-aligned; just check parseability of the
		// first field.
		t.Logf("describe output:\n%s", out)
	}
}
