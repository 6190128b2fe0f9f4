package p2psum

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"p2psum/internal/wire"
)

// TestPaperWalkthrough drives the full §3–§5 walkthrough through the public
// API: Table 1 data, summarization, reformulation of the paper's query and
// the age={young} approximate answer.
func TestPaperWalkthrough(t *testing.T) {
	rel := PaperPatients()
	b := MedicalBK()
	tree, err := Summarize(rel, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tree.LeafCount() == 0 || tree.Root().Count() < 2.99 {
		t.Fatalf("summary looks empty: %d leaves, weight %g", tree.LeafCount(), tree.Root().Count())
	}
	q, err := Reformulate(b, []string{"age"}, []Predicate{
		{Attr: "sex", Op: Eq, Strs: []string{"female"}},
		{Attr: "bmi", Op: Lt, Num: 19},
		{Attr: "disease", Op: Eq, Strs: []string{"anorexia"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := AskApproximate(tree, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ans.Classes {
		if got := strings.Join(c.Answers.Get("age"), ","); got != "young" {
			t.Errorf("answer age = %q, want young", got)
		}
	}
	peers, err := Localize(tree, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 1 || peers[0] != 1 {
		t.Errorf("Localize = %v, want [1]", peers)
	}
}

func TestSummarizerIncremental(t *testing.T) {
	b := MedicalBK()
	s, err := NewSummarizer(b, PatientSchema(), 7)
	if err != nil {
		t.Fatal(err)
	}
	rel := GeneratePatients(1, 200)
	if err := s.AddRelation(rel); err != nil {
		t.Fatal(err)
	}
	if s.CellCount() == 0 {
		t.Error("no cells after 200 records")
	}
	if s.Tree().Root().Count() < 199 {
		t.Errorf("tree weight = %g", s.Tree().Root().Count())
	}
	if s.BK() != b {
		t.Error("BK accessor wrong")
	}
	if !slices.Contains(s.Tree().Root().AppendPeerIDs(nil), 7) {
		t.Error("peer extent missing")
	}
}

func TestMergeSummariesAPI(t *testing.T) {
	b := MedicalBK()
	t1, err := Summarize(GeneratePatients(2, 100), b, 1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Summarize(GeneratePatients(3, 150), b, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := t1.Root().Count() + t2.Root().Count()
	if err := MergeSummaries(t1, t2); err != nil {
		t.Fatal(err)
	}
	if got := t1.Root().Count(); got < w-1e-6 || got > w+1e-6 {
		t.Errorf("merged weight %g, want %g", got, w)
	}
}

func TestEncodeDecodeSummary(t *testing.T) {
	tree, err := Summarize(GeneratePatients(4, 120), MedicalBK(), 1)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeSummary(tree)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSummary(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.LeafCount() != tree.LeafCount() {
		t.Error("round trip changed the tree")
	}
	// A summary written in another layout is refused by version, not
	// misparsed as this one.
	blob[0] ^= 0xff
	_, err = DecodeSummary(blob)
	want := fmt.Sprintf("summary layout version %d, want %d", wire.FrameVersion^0xff, wire.FrameVersion)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("flipped version byte: err = %v, want one naming %q", err, want)
	}
}

func TestInferBKAndCSV(t *testing.T) {
	rel := GeneratePatients(5, 80)
	b, err := InferBK(rel, 3)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Summarize(rel, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.LeafCount() == 0 {
		t.Error("inferred-BK summary empty")
	}
	var sb strings.Builder
	if err := rel.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("Patient", PatientSchema(), strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != rel.Len() {
		t.Error("CSV round trip lost records")
	}
}

func TestCustomBKConstruction(t *testing.T) {
	v, err := UniformPartition("salary", 0, 200000, "low", "mid", "high")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBK(
		NumericAttr(v),
		CategoricalAttr("dept", []string{"eng", "sales"}, nil),
	)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := NewSchema(
		Attribute{Name: "salary", Kind: Numeric},
		Attribute{Name: "dept", Kind: Categorical},
	)
	if err != nil {
		t.Fatal(err)
	}
	rel := NewRelation("emp", schema)
	rel.MustInsert(Record{ID: "e1", Values: []Value{NumValue(50000), StrValue("eng")}})
	rel.MustInsert(Record{ID: "e2", Values: []Value{NumValue(180000), StrValue("sales")}})
	tree, err := Summarize(rel, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Select: []string{"salary"}, Where: []Clause{{Attr: "dept", Labels: []string{"eng"}}}}
	ans, err := AskApproximate(tree, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Classes) == 0 {
		t.Fatal("no answer classes")
	}
}

func TestSimulationLifecycle(t *testing.T) {
	s, err := NewSimulation(SimOptions{Peers: 200, SummaryPeers: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.QueryProtocol(0, &Oracle{}, 0); err == nil {
		t.Error("query before Construct accepted")
	}
	if err := s.Construct(); err != nil {
		t.Fatal(err)
	}
	if s.Coverage() != 1 {
		t.Errorf("coverage = %g", s.Coverage())
	}
	if len(s.SummaryPeerIDs()) != 4 {
		t.Errorf("SPs = %v", s.SummaryPeerIDs())
	}
	oracle := s.RandomMatchOracle(0.10)
	res, err := s.QueryProtocol(s.RandomClient(), oracle, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Results != len(oracle.Current) {
		t.Errorf("SQ found %d of %d", res.Results, len(oracle.Current))
	}
	flood := s.FloodQuery(s.RandomClient(), 3, oracle, len(oracle.Current))
	central := s.CentralizedQuery(oracle)
	if !(central.Messages < res.Messages && res.Messages < flood.Messages) {
		t.Errorf("ordering violated: %d / %d / %d", central.Messages, res.Messages, flood.Messages)
	}
	// Churn then coverage still reasonable and staleness bounded.
	s.RunChurn(2, 0.8)
	if s.OnlinePeers() == 0 {
		t.Error("everyone left")
	}
	for _, sp := range s.SummaryPeerIDs() {
		if f := s.StaleFraction(sp); f > 0.4 {
			t.Errorf("stale fraction %g above alpha headroom", f)
		}
	}
	if s.TotalMessages() == 0 || len(s.MessageCounts()) == 0 {
		t.Error("no messages counted")
	}
	if s.Now() <= 0 {
		t.Error("virtual clock did not advance")
	}
}

func TestSimulationDataLevel(t *testing.T) {
	b := MedicalBK()
	s, err := NewSimulation(SimOptions{Peers: 24, SummaryPeers: 1, Seed: 10, DataLevel: true, BK: b})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		if err := s.SetLocalData(NodeID(i), GeneratePatients(int64(100+i), 30)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Construct(); err != nil {
		t.Fatal(err)
	}
	sp := s.SummaryPeerIDs()[0]
	gs := s.GlobalSummary(sp)
	if gs == nil || gs.Empty() {
		t.Fatal("global summary empty")
	}
	q := Query{Select: []string{"age"}, Where: []Clause{{Attr: "disease", Labels: []string{"measles"}}}}
	da, err := s.QueryData(s.RandomClient(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(da.Peers) == 0 || da.Answer == nil {
		t.Error("data query found nothing")
	}
	// Dynamicity round trip.
	victim := s.DomainMembers(sp)[1]
	s.Leave(victim, true)
	s.Join(victim)
	s.MarkModified(victim)
	if s.DomainOf(victim) != sp {
		t.Error("victim lost its domain")
	}
}

func TestSimulationValidation(t *testing.T) {
	if _, err := NewSimulation(SimOptions{Peers: 2}); err == nil {
		t.Error("tiny network accepted")
	}
	s, err := NewSimulation(SimOptions{Peers: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetLocalData(0, PaperPatients()); err == nil {
		t.Error("SetLocalData without DataLevel accepted")
	}
}

func TestExperimentReExports(t *testing.T) {
	if SimulationParameters(DefaultExperimentConfig()) == "" {
		t.Error("Table 3 empty")
	}
	out, err := RunMappingWalkthrough()
	if err != nil || !strings.Contains(out, "Table 2") {
		t.Errorf("walkthrough: %v", err)
	}
	cfg := QuickExperimentConfig()
	cfg.DomainSizes = []int{40}
	cfg.NetworkSizes = []int{64}
	cfg.Queries = 10
	cfg.SimHours = 1
	for name, run := range map[string]func(ExperimentConfig) (*ResultTable, error){
		"fig4":    RunFigure4,
		"fig5":    RunFigure5,
		"fig6":    RunFigure6,
		"fig7":    RunFigure7,
		"storage": RunStorage,
	} {
		tbl, err := run(cfg)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if tbl.String() == "" {
			t.Errorf("%s: empty table", name)
		}
	}
}

func TestTaxonomyFacade(t *testing.T) {
	tax := MedicalTaxonomy()
	b := MedicalBK()
	q, err := ReformulateWithTaxonomy(b, tax, []string{"age"}, []Predicate{
		{Attr: "disease", Op: Eq, Strs: []string{"infectious"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where[0].Labels) != 6 {
		t.Errorf("group expansion = %v", q.Where[0].Labels)
	}
	custom, err := NewTaxonomy("disease", map[string][]string{"viral": {"influenza", "measles", "hepatitis"}})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := ReformulateWithTaxonomy(b, custom, nil, []Predicate{
		{Attr: "disease", Op: Eq, Strs: []string{"viral"}},
	})
	if err != nil || len(q2.Where[0].Labels) != 3 {
		t.Errorf("custom taxonomy: %v (%v)", q2, err)
	}
}

func TestSummaryQualityFacade(t *testing.T) {
	tree, err := Summarize(GeneratePatients(12, 400), MedicalBK(), 1)
	if err != nil {
		t.Fatal(err)
	}
	q := tree.Measure()
	if q.Nodes == 0 || q.Homogeneity <= 0 {
		t.Errorf("quality = %+v", q)
	}
	top, err := TopKSummaries(tree, Query{Where: []Clause{{Attr: "disease", Labels: []string{"malaria"}}}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 || top[0].Degree <= 0 {
		t.Errorf("TopKSummaries = %v", top)
	}
	// Trend lines at level 1 render something sensible.
	if tree.DescribeLevel(1) == "" {
		t.Error("DescribeLevel empty")
	}
}

func TestSimulationWorkloadAndReports(t *testing.T) {
	s, err := NewSimulation(SimOptions{Peers: 250, SummaryPeers: 5, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunWorkload(WorkloadOptions{Queries: 3}); err == nil {
		t.Error("workload before Construct accepted")
	}
	if err := s.Construct(); err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWorkload(WorkloadOptions{Queries: 5, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy.Recall() != 1 {
		t.Errorf("workload recall = %g", res.Accuracy.Recall())
	}
	reports := s.Reports()
	if len(reports) != 5 {
		t.Fatalf("Reports = %d", len(reports))
	}
	if s.Describe() == "" {
		t.Error("Describe empty")
	}
	if s.TotalBytes() == 0 {
		t.Error("no bytes accounted")
	}
	if len(s.MessageBytes()) == 0 {
		t.Error("MessageBytes empty")
	}
}

func TestSimulationTopologies(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model TopologyModel
	}{
		{"ba", TopologyBA},
		{"small-world", TopologySmallWorld},
		{"waxman", TopologyWaxman},
	} {
		s, err := NewSimulation(SimOptions{Peers: 150, SummaryPeers: 3, Seed: 61, Topology: tc.model})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := s.Construct(); err != nil {
			t.Fatalf("%s construct: %v", tc.name, err)
		}
		if cov := s.Coverage(); cov != 1 {
			t.Errorf("%s coverage = %g", tc.name, cov)
		}
		oracle := s.RandomMatchOracle(0.10)
		res, err := s.QueryProtocol(s.RandomClient(), oracle, 0)
		if err != nil {
			t.Fatalf("%s query: %v", tc.name, err)
		}
		if res.Accuracy.Recall() != 1 {
			t.Errorf("%s recall = %g", tc.name, res.Accuracy.Recall())
		}
	}
}

// TestFacadeAccessorsCoverage exercises the remaining thin facade wrappers
// so regressions in re-exported plumbing surface immediately.
func TestFacadeAccessorsCoverage(t *testing.T) {
	if PaperExampleBK().Len() != 2 {
		t.Error("PaperExampleBK wrong")
	}
	if DefaultTreeConfig().MaxChildren <= 0 {
		t.Error("DefaultTreeConfig wrong")
	}
	v, err := NewVariable("x", Term{Label: "lo", MF: Trapezoid{A: 0, B: 0, C: 1, D: 2}})
	if err != nil || v.Len() != 1 {
		t.Errorf("NewVariable: %v", err)
	}
	tree, err := Summarize(PaperPatients(), MedicalBK(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := SelectSummaries(tree, Query{Where: []Clause{{Attr: "disease", Labels: []string{"anorexia"}}}})
	if err != nil || len(sel.Summaries) == 0 {
		t.Errorf("SelectSummaries: %v", err)
	}
}

func TestSaveLoadSummaryAndEstimateCount(t *testing.T) {
	tree, err := Summarize(GeneratePatients(71, 500), MedicalBK(), 1)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/summary.sum"
	if err := SaveSummary(tree, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSummary(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.LeafCount() != tree.LeafCount() || !back.LeavesEqual(tree) {
		t.Error("persistence round trip changed the tree")
	}
	if _, err := LoadSummary(t.TempDir() + "/missing.sum"); err == nil {
		t.Error("missing file accepted")
	}
	// Count estimation matches ground truth at the descriptor level.
	rel := GeneratePatients(71, 500)
	q := Query{Where: []Clause{{Attr: "disease", Labels: []string{"malaria"}}}}
	est, err := EstimateCount(tree, q)
	if err != nil {
		t.Fatal(err)
	}
	exact := 0
	for _, rec := range rel.Records() {
		if d, _ := rel.Str(rec, "disease"); d == "malaria" {
			exact++
		}
	}
	if est < float64(exact)-1e-6 || est > float64(exact)+1e-6 {
		t.Errorf("EstimateCount = %g, exact = %d", est, exact)
	}
}

// TestSimulationLoss runs the full stack under seeded packet loss:
// construction, churn and querying reproduce from the seed alone, loss
// changes the traffic, and a rate outside [0,1) is refused.
func TestSimulationLoss(t *testing.T) {
	run := func(loss float64) map[string]int64 {
		s, err := NewSimulation(SimOptions{Peers: 200, SummaryPeers: 4, Seed: 21, LossRate: loss})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Construct(); err != nil {
			t.Fatal(err)
		}
		s.RunChurn(1, 0.8)
		if _, err := s.QueryProtocol(s.RandomClient(), s.RandomMatchOracle(0.10), 0); err != nil {
			t.Fatal(err)
		}
		return s.MessageCounts()
	}
	a, b := run(0.2), run(0.2)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("one seed, two traffic mixes:\n%v\n%v", a, b)
	}
	if lossless := run(0); fmt.Sprint(a) == fmt.Sprint(lossless) {
		t.Errorf("loss 0.2 left the traffic of loss 0: %v", a)
	}
	for _, p := range []float64{math.NaN(), -0.1, 1.0} {
		if _, err := NewSimulation(SimOptions{Peers: 20, Seed: 11, LossRate: p}); err == nil {
			t.Errorf("LossRate %g accepted", p)
		}
	}
}
