package p2psum_test

import (
	"fmt"

	"p2psum"
)

// ExampleSummarize reproduces the paper's §5.2.2 result: summarize the
// Table 1 Patient relation and ask the running query; the whole answer
// comes from the summary.
func ExampleSummarize() {
	tree, err := p2psum.Summarize(p2psum.PaperPatients(), p2psum.MedicalBK(), 1)
	if err != nil {
		panic(err)
	}
	q, err := p2psum.Reformulate(p2psum.MedicalBK(), []string{"age"}, []p2psum.Predicate{
		{Attr: "sex", Op: p2psum.Eq, Strs: []string{"female"}},
		{Attr: "bmi", Op: p2psum.Lt, Num: 19},
		{Attr: "disease", Op: p2psum.Eq, Strs: []string{"anorexia"}},
	})
	if err != nil {
		panic(err)
	}
	ans, err := p2psum.AskApproximate(tree, q)
	if err != nil {
		panic(err)
	}
	fmt.Println(ans.Classes[0].Answers.Get("age"))
	// Output: [young]
}

// ExampleLocalize shows peer localization: the summary doubles as a
// semantic index pointing at the peers holding relevant data.
func ExampleLocalize() {
	bk := p2psum.MedicalBK()
	tree, err := p2psum.Summarize(p2psum.PaperPatients(), bk, 42)
	if err != nil {
		panic(err)
	}
	q := p2psum.Query{Where: []p2psum.Clause{{Attr: "disease", Labels: []string{"malaria"}}}}
	peers, err := p2psum.Localize(tree, q)
	if err != nil {
		panic(err)
	}
	fmt.Println(peers)
	// Output: [42]
}

// ExampleReformulateWithTaxonomy expands a SNOMED-like disease group into
// its member descriptors before querying.
func ExampleReformulateWithTaxonomy() {
	q, err := p2psum.ReformulateWithTaxonomy(
		p2psum.MedicalBK(), p2psum.MedicalTaxonomy(), nil,
		[]p2psum.Predicate{{Attr: "disease", Op: p2psum.Eq, Strs: []string{"nutritional"}}},
	)
	if err != nil {
		panic(err)
	}
	fmt.Println(q.Where[0].Labels)
	// Output: [anorexia]
}

// ExampleNewSimulation builds a summary-managed P2P network and routes one
// total-lookup query through the global summaries.
func ExampleNewSimulation() {
	sim, err := p2psum.NewSimulation(p2psum.SimOptions{Peers: 100, SummaryPeers: 2, Seed: 7})
	if err != nil {
		panic(err)
	}
	if err := sim.Construct(); err != nil {
		panic(err)
	}
	oracle := sim.RandomMatchOracle(0.10)
	res, err := sim.QueryProtocol(sim.RandomClient(), oracle, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("found %d of %d matches, recall %.0f%%\n",
		res.Results, len(oracle.Current), 100*res.Accuracy.Recall())
	// Output: found 10 of 10 matches, recall 100%
}
