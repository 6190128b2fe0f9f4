// Benchmarks: one per paper table/figure (regenerating its measurement at
// reduced scale per iteration and reporting the headline metric), plus
// micro-benchmarks for the core engine operations. `cmd/experiments` prints
// the full paper-scale rows; these benches keep the numbers honest under
// `go test -bench`.
package p2psum_test

import (
	"testing"

	"p2psum"
)

func benchConfig() p2psum.ExperimentConfig {
	cfg := p2psum.QuickExperimentConfig()
	cfg.DomainSizes = []int{100}
	cfg.NetworkSizes = []int{250}
	cfg.Alphas = []float64{0.3, 0.8}
	cfg.Queries = 30
	cfg.QueriesPerPoint = 3
	cfg.SimHours = 2
	return cfg
}

// BenchmarkMappingService measures the §3.2.1 mapping throughput
// (records/op through the fuzzy grid of the medical BK).
func BenchmarkMappingService(b *testing.B) {
	bk := p2psum.MedicalBK()
	rel := p2psum.GeneratePatients(1, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := p2psum.NewSummarizer(bk, rel.Schema(), 0)
		if err != nil {
			b.Fatal(err)
		}
		// Mapping only: feed the store through AddRecord's mapper path.
		if err := s.AddRelation(rel); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rel.Len()), "records/op")
}

// BenchmarkSummarization measures full hierarchy construction (Figure 3 at
// scale): 2000 records through mapping + conceptual clustering.
func BenchmarkSummarization(b *testing.B) {
	bk := p2psum.MedicalBK()
	rel := p2psum.GeneratePatients(2, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p2psum.Summarize(rel, bk, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalIncorporate measures the O(K) online insertion on a
// stabilized hierarchy (§3.2.3).
func BenchmarkIncrementalIncorporate(b *testing.B) {
	bk := p2psum.MedicalBK()
	s, err := p2psum.NewSummarizer(bk, p2psum.PatientSchema(), 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.AddRelation(p2psum.GeneratePatients(3, 5000)); err != nil {
		b.Fatal(err)
	}
	fresh := p2psum.GeneratePatients(4, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := fresh.Records()[i%fresh.Len()]
		if err := s.AddRecord(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMerging measures Merging(S1, S2) (§6.1.1 [27]): complexity is
// bounded by S1's leaves, not its tuples.
func BenchmarkMerging(b *testing.B) {
	bk := p2psum.MedicalBK()
	src, err := p2psum.Summarize(p2psum.GeneratePatients(5, 3000), bk, 1)
	if err != nil {
		b.Fatal(err)
	}
	base, err := p2psum.Summarize(p2psum.GeneratePatients(6, 3000), bk, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dst := base.Clone()
		b.StartTimer()
		if err := p2psum.MergeSummaries(dst, src); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(src.LeafCount()), "leaves/op")
}

// BenchmarkQueryEvaluation measures §5.2 summary querying: selection plus
// approximate answering on a warm hierarchy (the paper's E3).
func BenchmarkQueryEvaluation(b *testing.B) {
	bk := p2psum.MedicalBK()
	tree, err := p2psum.Summarize(p2psum.GeneratePatients(7, 3000), bk, 1)
	if err != nil {
		b.Fatal(err)
	}
	q, err := p2psum.Reformulate(bk, []string{"age"}, []p2psum.Predicate{
		{Attr: "sex", Op: p2psum.Eq, Strs: []string{"female"}},
		{Attr: "bmi", Op: p2psum.Lt, Num: 19},
		{Attr: "disease", Op: p2psum.Eq, Strs: []string{"anorexia"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p2psum.AskApproximate(tree, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeSummary measures summary serialization (localsum message
// payloads).
func BenchmarkEncodeSummary(b *testing.B) {
	tree, err := p2psum.Summarize(p2psum.GeneratePatients(8, 2000), p2psum.MedicalBK(), 1)
	if err != nil {
		b.Fatal(err)
	}
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := p2psum.EncodeSummary(tree)
		if err != nil {
			b.Fatal(err)
		}
		size = len(blob)
	}
	b.ReportMetric(float64(size), "bytes/summary")
}

// BenchmarkDomainConstruction measures §4.1 construction on a 500-peer
// power-law overlay (sumpeer broadcast + localsum + straggler walks).
func BenchmarkDomainConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := p2psum.NewSimulation(p2psum.SimOptions{Peers: 500, SummaryPeers: 10, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Construct(); err != nil {
			b.Fatal(err)
		}
		if s.Coverage() != 1 {
			b.Fatal("incomplete coverage")
		}
	}
}

// BenchmarkFigure4StaleAnswers regenerates one Figure 4 point per
// iteration (stale answers vs domain size, worst case).
func BenchmarkFigure4StaleAnswers(b *testing.B) {
	cfg := benchConfig()
	var stale float64
	for i := 0; i < b.N; i++ {
		tbl, err := p2psum.RunFigure4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		stale = tbl.Series[0].Points[0].Y
	}
	b.ReportMetric(stale, "stale%@a0.3")
}

// BenchmarkFigure5FalseNegatives regenerates one Figure 5 point per
// iteration (real-case false negatives).
func BenchmarkFigure5FalseNegatives(b *testing.B) {
	cfg := benchConfig()
	var fn float64
	for i := 0; i < b.N; i++ {
		tbl, err := p2psum.RunFigure5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		fn = tbl.Series[0].Points[0].Y
	}
	b.ReportMetric(fn, "fn%")
}

// BenchmarkFigure6UpdateCost regenerates one Figure 6 point per iteration
// (maintenance messages per node per hour).
func BenchmarkFigure6UpdateCost(b *testing.B) {
	cfg := benchConfig()
	var perNode float64
	for i := 0; i < b.N; i++ {
		tbl, err := p2psum.RunFigure6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		perNode = tbl.Series[2].Points[0].Y
	}
	b.ReportMetric(perNode, "msg/node/h")
}

// BenchmarkFigure7QueryCost regenerates one Figure 7 point per iteration
// and reports the SQ-vs-flooding savings factor.
func BenchmarkFigure7QueryCost(b *testing.B) {
	cfg := benchConfig()
	var ratio float64
	for i := 0; i < b.N; i++ {
		tbl, err := p2psum.RunFigure7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Series: centralized, SQ, flood single-round, flood-to-Ct, model.
		sq := tbl.Series[1].Points[0]
		fl := tbl.Series[3].YAt(sq.X)
		if sq.Y > 0 {
			ratio = fl / sq.Y
		}
	}
	b.ReportMetric(ratio, "flood/SQ")
}

// BenchmarkStorageModel regenerates the §6.1.1 storage table.
func BenchmarkStorageModel(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := p2psum.RunStorage(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSQRouting measures one summary-routed total-lookup query on a
// 1000-peer network.
func BenchmarkSQRouting(b *testing.B) {
	s, err := p2psum.NewSimulation(p2psum.SimOptions{Peers: 1000, SummaryPeers: 10, Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Construct(); err != nil {
		b.Fatal(err)
	}
	var msgs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle := s.RandomMatchOracle(0.10)
		res, err := s.QueryProtocol(s.RandomClient(), oracle, 0)
		if err != nil {
			b.Fatal(err)
		}
		msgs = float64(res.Messages)
	}
	b.ReportMetric(msgs, "messages/query")
}

// BenchmarkFloodRouting measures the pure-flooding baseline on the same
// network shape.
func BenchmarkFloodRouting(b *testing.B) {
	s, err := p2psum.NewSimulation(p2psum.SimOptions{Peers: 1000, SummaryPeers: 10, Seed: 22})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Construct(); err != nil {
		b.Fatal(err)
	}
	var msgs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle := s.RandomMatchOracle(0.10)
		res := s.FloodQuery(s.RandomClient(), 3, oracle, len(oracle.Current))
		msgs = float64(res.Messages)
	}
	b.ReportMetric(msgs, "messages/query")
}

// BenchmarkAblationMaintenance regenerates the maintenance-strategy
// ablation.
func BenchmarkAblationMaintenance(b *testing.B) {
	cfg := benchConfig()
	cfg.DomainSizes = []int{60}
	for i := 0; i < b.N; i++ {
		if _, err := p2psum.RunAblationMaintenance(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRoutingModes regenerates the §6.1.2 routing-mode
// ablation.
func BenchmarkAblationRoutingModes(b *testing.B) {
	cfg := benchConfig()
	cfg.DomainSizes = []int{100}
	for i := 0; i < b.N; i++ {
		if _, err := p2psum.RunAblationRoutingModes(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWalks regenerates the selective-vs-random walk
// ablation.
func BenchmarkAblationWalks(b *testing.B) {
	cfg := benchConfig()
	cfg.NetworkSizes = []int{128}
	for i := 0; i < b.N; i++ {
		if _, err := p2psum.RunAblationWalks(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurn measures protocol throughput under two hours of lognormal
// churn in a 300-peer network.
func BenchmarkChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := p2psum.NewSimulation(p2psum.SimOptions{Peers: 300, SummaryPeers: 5, Seed: int64(30 + i)})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Construct(); err != nil {
			b.Fatal(err)
		}
		s.RunChurn(2, 0.8)
	}
}

// BenchmarkAblationArity regenerates the hierarchy arity-cap ablation (the
// B of the §6.1.1 storage model).
func BenchmarkAblationArity(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := p2psum.RunAblationArity(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationConstructionTTL regenerates the sumpeer TTL ablation.
func BenchmarkAblationConstructionTTL(b *testing.B) {
	cfg := benchConfig()
	cfg.DomainSizes = []int{200}
	for i := 0; i < b.N; i++ {
		if _, err := p2psum.RunAblationConstructionTTL(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQualityMetrics measures the hierarchy quality pass.
func BenchmarkQualityMetrics(b *testing.B) {
	tree, err := p2psum.Summarize(p2psum.GeneratePatients(40, 3000), p2psum.MedicalBK(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var h float64
	for i := 0; i < b.N; i++ {
		h = tree.Measure().Homogeneity
	}
	b.ReportMetric(h, "homogeneity")
}

// BenchmarkWorkload routes a 10-query Table 3 workload per iteration.
func BenchmarkWorkload(b *testing.B) {
	s, err := p2psum.NewSimulation(p2psum.SimOptions{Peers: 500, SummaryPeers: 10, Seed: 41})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Construct(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := s.RunWorkload(p2psum.WorkloadOptions{Queries: 10, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.FloodMessages.Mean() / res.SQMessages.Mean()
	}
	b.ReportMetric(ratio, "flood/SQ")
}

// sweepConfig is a multi-point (α × size) grid big enough for the worker
// pool to matter.
func sweepConfig(workers int) p2psum.ExperimentConfig {
	cfg := p2psum.QuickExperimentConfig()
	cfg.DomainSizes = []int{50, 100, 150, 200}
	cfg.Alphas = []float64{0.1, 0.3, 0.5, 0.8}
	cfg.Queries = 30
	cfg.SimHours = 2
	cfg.Workers = workers
	return cfg
}

// BenchmarkSweepSequential runs the Figure 4 (α × domain size) grid on one
// worker — the baseline the parallel harness is measured against.
func BenchmarkSweepSequential(b *testing.B) {
	cfg := sweepConfig(1)
	for i := 0; i < b.N; i++ {
		if _, err := p2psum.RunFigure4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallel runs the identical grid across one worker per
// CPU; results are bit-identical to the sequential run (each grid point is
// independently seeded), only wall-clock differs.
func BenchmarkSweepParallel(b *testing.B) {
	cfg := sweepConfig(0) // 0 = one worker per CPU
	for i := 0; i < b.N; i++ {
		if _, err := p2psum.RunFigure4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransportSim measures §4.1 construction plus a
// graceful-leave/rejoin wave on the deterministic discrete-event transport.
func BenchmarkTransportSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := p2psum.NewSimulation(p2psum.SimOptions{
			Peers: 500, SummaryPeers: 10, Seed: int64(50 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Construct(); err != nil {
			b.Fatal(err)
		}
		for id := p2psum.NodeID(100); id < 150; id++ {
			s.Leave(id, true)
		}
		for id := p2psum.NodeID(100); id < 150; id++ {
			s.Join(id)
		}
		if s.Coverage() != 1 {
			b.Fatal("incomplete coverage")
		}
	}
}

// BenchmarkTopKSummaries measures graded retrieval on a warm hierarchy.
func BenchmarkTopKSummaries(b *testing.B) {
	tree, err := p2psum.Summarize(p2psum.GeneratePatients(42, 2000), p2psum.MedicalBK(), 1)
	if err != nil {
		b.Fatal(err)
	}
	q := p2psum.Query{Where: []p2psum.Clause{{Attr: "disease", Labels: []string{"malaria", "cholera"}}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p2psum.TopKSummaries(tree, q, 5); err != nil {
			b.Fatal(err)
		}
	}
}
