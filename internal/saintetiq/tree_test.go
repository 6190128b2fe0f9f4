package saintetiq

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/data"
	"p2psum/internal/wire"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func paperStore(t testing.TB) *cells.Store {
	t.Helper()
	m, err := cells.NewMapper(bk.PaperExample(), data.PatientSchema())
	if err != nil {
		t.Fatal(err)
	}
	s := cells.NewStore(m)
	s.AddRelation(data.PaperPatients())
	return s
}

func medicalStore(t testing.TB, seed int64, n int) *cells.Store {
	t.Helper()
	m, err := cells.NewMapper(bk.Medical(), data.PatientSchema())
	if err != nil {
		t.Fatal(err)
	}
	s := cells.NewStore(m)
	s.AddRelation(data.NewPatientGenerator(seed, nil).Generate("r", n))
	return s
}

// TestFigure3Hierarchy builds the paper's example hierarchy from cells
// c1..c3 and checks the structural facts Figure 3 shows: a root covering
// everything with weight 3, three leaves, and a root intent of
// {young, adult} x {underweight, normal}.
func TestFigure3Hierarchy(t *testing.T) {
	tr := New(bk.PaperExample(), DefaultConfig())
	if err := tr.IncorporateStore(paperStore(t)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tr.LeafCount() != 3 {
		t.Fatalf("LeafCount = %d, want 3:\n%s", tr.LeafCount(), tr)
	}
	root := tr.Root()
	if !almost(root.Count(), 3) {
		t.Errorf("root count = %g, want 3", root.Count())
	}
	ageIdx := tr.AttrIndex("age")
	bmiIdx := tr.AttrIndex("bmi")
	if ageIdx != 0 || bmiIdx != 1 {
		t.Fatalf("attr indexes wrong: age=%d bmi=%d", ageIdx, bmiIdx)
	}
	wantAge := map[string]bool{"young": true, "adult": true}
	for _, j := range root.LabelIndexes(ageIdx) {
		if !wantAge[tr.Label(ageIdx, j)] {
			t.Errorf("unexpected root age label %q", tr.Label(ageIdx, j))
		}
		delete(wantAge, tr.Label(ageIdx, j))
	}
	if len(wantAge) != 0 {
		t.Errorf("root age intent misses %v", wantAge)
	}
	// Young carries weight 2 (c1) + 0.7 (c2).
	j := tr.LabelIndex(ageIdx, "young")
	if !almost(root.LabelCount(ageIdx, j), 2.7) {
		t.Errorf("root young count = %g, want 2.7", root.LabelCount(ageIdx, j))
	}
	// Rendering mentions the descriptors.
	if s := tr.String(); !strings.Contains(s, "young") || !strings.Contains(s, "normal") {
		t.Errorf("String misses intent:\n%s", s)
	}
}

func TestIncorporateFastPathStabilizes(t *testing.T) {
	tr := New(bk.PaperExample(), DefaultConfig())
	s := paperStore(t)
	if err := tr.IncorporateStore(s); err != nil {
		t.Fatal(err)
	}
	ops := tr.Stats().Structural()
	epoch := tr.Epoch()
	// Re-incorporating the same cells must ride the fast path only.
	if err := tr.IncorporateStore(s); err != nil {
		t.Fatal(err)
	}
	if tr.Stats().Structural() != ops {
		t.Errorf("re-incorporation changed structure: %d -> %d ops", ops, tr.Stats().Structural())
	}
	if tr.Epoch() != epoch {
		t.Errorf("re-incorporation bumped epoch %d -> %d", epoch, tr.Epoch())
	}
	if tr.Stats().FastPath != 3 {
		t.Errorf("FastPath = %d, want 3", tr.Stats().FastPath)
	}
	if !almost(tr.Root().Count(), 6) {
		t.Errorf("root count after doubling = %g, want 6", tr.Root().Count())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate after fast path: %v", err)
	}
}

func TestLargeHierarchyInvariants(t *testing.T) {
	tr := New(bk.Medical(), DefaultConfig())
	s := medicalStore(t, 5, 1500)
	if err := tr.IncorporateStore(s); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tr.LeafCount() != s.Len() {
		t.Errorf("LeafCount = %d, want %d (one leaf per populated cell)", tr.LeafCount(), s.Len())
	}
	if tr.LeafCount() > bk.Medical().GridSize() {
		t.Errorf("leaves %d exceed grid bound %d", tr.LeafCount(), bk.Medical().GridSize())
	}
	if !almost(tr.Root().Count(), s.TupleWeight()) {
		t.Errorf("root count %g != store weight %g", tr.Root().Count(), s.TupleWeight())
	}
	if d := tr.Depth(); d < 2 {
		t.Errorf("depth = %d; expected a real hierarchy", d)
	}
	if b := tr.AvgBranching(); b < 1.5 || b > float64(DefaultConfig().MaxChildren)+0.01 {
		t.Errorf("avg branching = %g out of range", b)
	}
}

func TestArityCapEnforced(t *testing.T) {
	cfg := Config{MaxChildren: 3, MaxSplitRounds: 1}
	tr := New(bk.Medical(), cfg)
	if err := tr.IncorporateStore(medicalStore(t, 6, 800)); err != nil {
		t.Fatal(err)
	}
	tr.Walk(func(n *Node) bool {
		if len(n.Children()) > cfg.MaxChildren {
			t.Errorf("node %d has %d children, cap is %d", n.ID(), len(n.Children()), cfg.MaxChildren)
		}
		return true
	})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPeerExtents(t *testing.T) {
	tr := New(bk.PaperExample(), DefaultConfig())
	s := paperStore(t)
	cs := s.Cells()
	if err := tr.Incorporate(cs[0], 7); err != nil { // adult|normal
		t.Fatal(err)
	}
	if err := tr.Incorporate(cs[1], 9); err != nil { // young|normal
		t.Fatal(err)
	}
	if err := tr.Incorporate(cs[2], 7, 9); err != nil { // young|underweight
		t.Fatal(err)
	}
	root := tr.Root()
	ids := root.PeerIDs()
	if len(ids) != 2 || ids[0] != 7 || ids[1] != 9 {
		t.Errorf("root peers = %v, want [7 9]", ids)
	}
	if !root.HasPeer(7) || root.HasPeer(8) {
		t.Error("HasPeer wrong")
	}
	leaf := tr.Leaf(cs[0].Key())
	if leaf == nil || leaf.PeerCount() != 1 || !leaf.HasPeer(7) {
		t.Errorf("leaf peer extent wrong: %v", leaf.PeerIDs())
	}
}

func TestIncorporateErrors(t *testing.T) {
	tr := New(bk.PaperExample(), DefaultConfig())
	bad := &cells.Cell{Labels: []string{"young"}, Grades: []float64{1}, Count: 1, Measures: make([]cells.Measure, 1)}
	if err := tr.Incorporate(bad); err == nil {
		t.Error("arity-mismatched cell accepted")
	}
	bad2 := &cells.Cell{Labels: []string{"young", "gigantic"}, Grades: []float64{1, 1}, Count: 1, Measures: make([]cells.Measure, 2)}
	if err := tr.Incorporate(bad2); err == nil {
		t.Error("unknown label accepted")
	}
}

func TestMergeHierarchies(t *testing.T) {
	t1 := New(bk.Medical(), DefaultConfig())
	if err := t1.IncorporateStore(medicalStore(t, 10, 300), 1); err != nil {
		t.Fatal(err)
	}
	t2 := New(bk.Medical(), DefaultConfig())
	if err := t2.IncorporateStore(medicalStore(t, 20, 400), 2); err != nil {
		t.Fatal(err)
	}
	w1, w2 := t1.Root().Count(), t2.Root().Count()
	if err := t1.Merge(t2); err != nil {
		t.Fatal(err)
	}
	if err := t1.Validate(); err != nil {
		t.Fatalf("Validate after merge: %v", err)
	}
	if !almost(t1.Root().Count(), w1+w2) {
		t.Errorf("merged weight %g != %g + %g", t1.Root().Count(), w1, w2)
	}
	ids := t1.Root().PeerIDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Errorf("merged peers = %v", ids)
	}
	// The source is untouched.
	if !almost(t2.Root().Count(), w2) {
		t.Errorf("merge mutated source: %g", t2.Root().Count())
	}
}

func TestMergeIncompatible(t *testing.T) {
	t1 := New(bk.Medical(), DefaultConfig())
	t2 := New(bk.PaperExample(), DefaultConfig())
	if err := t1.Merge(t2); err == nil {
		t.Error("incompatible merge accepted")
	}
}

func TestMergeLeafBoundNotTuples(t *testing.T) {
	// Complexity claim of §6.1.1: merging cost depends on leaves, not
	// tuples. Build one small and one big source over the same BK; the
	// merge touches at most GridSize leaves regardless of tuple counts.
	big := New(bk.Medical(), DefaultConfig())
	if err := big.IncorporateStore(medicalStore(t, 30, 3000), 1); err != nil {
		t.Fatal(err)
	}
	if big.LeafCount() > bk.Medical().GridSize() {
		t.Fatalf("leaf bound violated: %d > %d", big.LeafCount(), bk.Medical().GridSize())
	}
	dst := New(bk.Medical(), DefaultConfig())
	if err := dst.IncorporateStore(medicalStore(t, 31, 100), 2); err != nil {
		t.Fatal(err)
	}
	before := dst.Stats().Incorporations
	if err := dst.Merge(big); err != nil {
		t.Fatal(err)
	}
	if got := dst.Stats().Incorporations - before; got != big.LeafCount() {
		t.Errorf("merge did %d incorporations, want %d (leaf count)", got, big.LeafCount())
	}
}

func TestClone(t *testing.T) {
	tr := New(bk.Medical(), DefaultConfig())
	if err := tr.IncorporateStore(medicalStore(t, 40, 500), 3); err != nil {
		t.Fatal(err)
	}
	cl := tr.Clone()
	if err := cl.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	if cl.LeafCount() != tr.LeafCount() || !almost(cl.Root().Count(), tr.Root().Count()) {
		t.Error("clone differs from original")
	}
	// Mutating the clone must not affect the original.
	extra := medicalStore(t, 41, 100)
	if err := cl.IncorporateStore(extra, 4); err != nil {
		t.Fatal(err)
	}
	if almost(cl.Root().Count(), tr.Root().Count()) {
		t.Error("clone mutation leaked into original")
	}
	if tr.Root().HasPeer(4) {
		t.Error("clone peer leaked into original")
	}
}

// TestGobRoundTrip pins the one summary encoding (AppendWire/DecodeWire):
// shape, weight and peer extent survive, junk and truncated input do not
// decode.
func TestGobRoundTrip(t *testing.T) {
	tr := New(bk.Medical(), DefaultConfig())
	if err := tr.IncorporateStore(medicalStore(t, 50, 400), 5); err != nil {
		t.Fatal(err)
	}
	var e wire.Enc
	tr.AppendWire(&e)
	b := e.Bytes()
	back, err := DecodeWire(wire.NewDec(b))
	if err != nil {
		t.Fatal(err)
	}
	if back.LeafCount() != tr.LeafCount() || back.NodeCount() != tr.NodeCount() {
		t.Errorf("round trip changed shape: %d/%d vs %d/%d leaves/nodes",
			back.LeafCount(), back.NodeCount(), tr.LeafCount(), tr.NodeCount())
	}
	if !almost(back.Root().Count(), tr.Root().Count()) {
		t.Errorf("round trip changed weight")
	}
	if !back.Root().HasPeer(5) {
		t.Error("round trip lost peer extent")
	}
	if sz := tr.EncodedSize(); sz != len(b) {
		t.Errorf("EncodedSize = %d, encoding is %d bytes", sz, len(b))
	}
	if _, err := DecodeWire(wire.NewDec([]byte("junk"))); err == nil {
		t.Error("junk decoded")
	}
	for _, cut := range []int{0, 1, len(b) / 2, len(b) - 1} {
		if _, err := DecodeWire(wire.NewDec(b[:cut])); err == nil {
			t.Errorf("encoding truncated to %d of %d bytes decoded", cut, len(b))
		}
	}
}

func TestLeafCellRoundTrip(t *testing.T) {
	tr := New(bk.PaperExample(), DefaultConfig())
	s := paperStore(t)
	if err := tr.IncorporateStore(s, 11); err != nil {
		t.Fatal(err)
	}
	for _, leaf := range tr.Leaves() {
		c, peers := tr.LeafCell(leaf)
		if c.Key() != leaf.Key() {
			t.Errorf("LeafCell key %q != %q", c.Key(), leaf.Key())
		}
		if len(peers) != 1 || peers[0] != 11 {
			t.Errorf("LeafCell peers = %v", peers)
		}
		orig := s.Get(c.Key())
		if orig == nil || !almost(c.Count, orig.Count) {
			t.Errorf("LeafCell count %g != store %v", c.Count, orig)
		}
	}
}

func TestDeterminism(t *testing.T) {
	build := func() *Tree {
		tr := New(bk.Medical(), DefaultConfig())
		if err := tr.IncorporateStore(medicalStore(t, 60, 600), 1); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := build(), build()
	if a.String() != b.String() {
		t.Error("same input produced different hierarchies")
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New(bk.Medical(), DefaultConfig())
	if !tr.Empty() {
		t.Error("new tree not empty")
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("empty tree invalid: %v", err)
	}
	if tr.Depth() != 0 || tr.NodeCount() != 1 {
		t.Errorf("empty tree shape: depth=%d nodes=%d", tr.Depth(), tr.NodeCount())
	}
	if tr.AvgBranching() != 0 {
		t.Errorf("empty tree branching = %g", tr.AvgBranching())
	}
}

func TestOperatorString(t *testing.T) {
	for op, want := range map[operator]string{opHost: "host", opCreate: "create", opMerge: "merge", opSplit: "split", operator(9): "?"} {
		if op.String() != want {
			t.Errorf("operator(%d).String() = %q, want %q", int(op), op.String(), want)
		}
	}
}

// Property: incorporating any generated store keeps the tree valid and
// preserves total weight.
func TestQuickTreeInvariants(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%60) + 1
		m, err := cells.NewMapper(bk.Medical(), data.PatientSchema())
		if err != nil {
			return false
		}
		s := cells.NewStore(m)
		s.AddRelation(data.NewPatientGenerator(seed, nil).Generate("q", n))
		tr := New(bk.Medical(), DefaultConfig())
		if err := tr.IncorporateStore(s, 1); err != nil {
			return false
		}
		if err := tr.Validate(); err != nil {
			return false
		}
		return almost(tr.Root().Count(), s.TupleWeight()) && tr.LeafCount() == s.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: merge is weight-additive and peer-extent-unioning for any pair
// of generated hierarchies.
func TestQuickMergeAdditive(t *testing.T) {
	f := func(s1, s2 int64) bool {
		build := func(seed int64, peer PeerID) *Tree {
			m, _ := cells.NewMapper(bk.Medical(), data.PatientSchema())
			s := cells.NewStore(m)
			s.AddRelation(data.NewPatientGenerator(seed, nil).Generate("q", 40))
			tr := New(bk.Medical(), DefaultConfig())
			if err := tr.IncorporateStore(s, peer); err != nil {
				return nil
			}
			return tr
		}
		a, b := build(s1, 1), build(s2, 2)
		if a == nil || b == nil {
			return false
		}
		wa, wb := a.Root().Count(), b.Root().Count()
		if err := a.Merge(b); err != nil {
			return false
		}
		if err := a.Validate(); err != nil {
			return false
		}
		return almost(a.Root().Count(), wa+wb) && a.Root().HasPeer(1) && a.Root().HasPeer(2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestHierarchyStabilization reproduces the §4.2.1 claim: "as more tuples
// are processed, the need to adapt the hierarchy decreases". After a warmup
// stream, further batches from the same distribution cause (almost) no
// structural operations.
func TestHierarchyStabilization(t *testing.T) {
	m, err := cells.NewMapper(bk.Medical(), data.PatientSchema())
	if err != nil {
		t.Fatal(err)
	}
	tr := New(bk.Medical(), DefaultConfig())
	gen := data.NewPatientGenerator(70, nil)

	warm := cells.NewStore(m)
	warm.AddRelation(gen.Generate("warm", 4000))
	if err := tr.IncorporateStore(warm, 1); err != nil {
		t.Fatal(err)
	}
	warmOps := tr.Stats().Structural()

	late := cells.NewStore(m)
	late.AddRelation(gen.Generate("late", 4000))
	if err := tr.IncorporateStore(late, 1); err != nil {
		t.Fatal(err)
	}
	lateOps := tr.Stats().Structural() - warmOps
	if lateOps*5 > warmOps {
		t.Errorf("hierarchy did not stabilize: warm=%d ops, late=%d ops", warmOps, lateOps)
	}
}
