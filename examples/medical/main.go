// Medical models the paper's motivating scenario (§1): a collaborative
// medical application where hospitals share patient databases through a
// super-peer domain. Each hospital keeps a local summary; the domain's
// global summary localizes relevant hospitals AND answers epidemiological
// questions approximately, without shipping a single patient record.
package main

import (
	"fmt"
	"log"

	"p2psum"
)

func main() {
	const hospitals = 20
	bk := p2psum.MedicalBK()

	sim, err := p2psum.NewSimulation(p2psum.SimOptions{
		Peers:        hospitals,
		SummaryPeers: 1,
		Alpha:        0.3,
		Seed:         7,
		DataLevel:    true,
		BK:           bk,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Hospitals have specialties: interest-based data clustering. The
	// first five concentrate on malaria, the next five on diabetes, the
	// rest are general.
	for i := 0; i < hospitals; i++ {
		var rel *p2psum.Relation
		switch {
		case i < 5:
			rel = biased(int64(100+i), "malaria")
		case i < 10:
			rel = biased(int64(200+i), "diabetes")
		default:
			rel = p2psum.GeneratePatients(int64(300+i), 120)
		}
		if err := sim.SetLocalData(p2psum.NodeID(i), rel); err != nil {
			log.Fatal(err)
		}
	}

	// §4.1: the super-peer broadcasts sumpeer, hospitals ship their local
	// summaries, the global summary is merged.
	if err := sim.Construct(); err != nil {
		log.Fatal(err)
	}
	sp := sim.SummaryPeerIDs()[0]
	gs := sim.GlobalSummary(sp)
	fmt.Printf("domain constructed: super-peer %d, %d hospitals, global summary: %d nodes over %.0f patient records\n\n",
		sp, len(sim.DomainMembers(sp)), gs.NodeCount(), gs.Root().Count())

	// A doctor asks: "age of malaria patients" — an approximate,
	// immediate answer straight from the summary.
	ask(sim, bk, "malaria")
	ask(sim, bk, "diabetes")

	// §4.2: hospital 3 updates its database heavily; the push/pull
	// machinery keeps the global summary fresh.
	fmt.Println("hospital 3 reports heavy updates (push, §4.2.1)...")
	for _, h := range sim.DomainMembers(sp) {
		if h != sp {
			sim.MarkModified(h)
		}
	}
	fmt.Printf("reconciliations completed: %d (ring pull, §4.2.2)\n", sim.Reconciliations())
	fmt.Printf("cooperation-list staleness after pull: %.0f%%\n\n", 100*sim.StaleFraction(sp))

	fmt.Println("message traffic by type:")
	for typ, n := range sim.MessageCounts() {
		fmt.Printf("  %-12s %6d\n", typ, n)
	}
}

// biased generates a hospital database concentrated on one disease.
func biased(seed int64, disease string) *p2psum.Relation {
	gen := p2psum.GeneratePatients(seed, 40) // general admissions
	spec := specialty(seed+1, disease, 160)
	for _, rec := range spec.Records() {
		gen.MustInsert(rec)
	}
	return gen
}

func specialty(seed int64, disease string, n int) *p2psum.Relation {
	// Draw from the global generator and keep only the specialty, topping
	// up until n records are collected.
	out := p2psum.NewRelation("specialty", p2psum.PatientSchema())
	var s int64
	for out.Len() < n {
		rel := p2psum.GeneratePatients(seed+s, 400)
		for _, rec := range rel.Records() {
			if out.Len() >= n {
				break
			}
			if d, err := rel.Str(rec, "disease"); err == nil && d == disease {
				rec.ID = fmt.Sprintf("%s-%d", disease, out.Len())
				out.MustInsert(rec)
			}
		}
		s++
	}
	return out
}

func ask(sim *p2psum.Simulation, bk *p2psum.BK, disease string) {
	q, err := p2psum.Reformulate(bk, []string{"age", "bmi"}, []p2psum.Predicate{
		{Attr: "disease", Op: p2psum.Eq, Strs: []string{disease}},
	})
	if err != nil {
		log.Fatal(err)
	}
	da, err := sim.QueryData(sim.RandomClient(), q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query: age and BMI of %s patients\n", disease)
	fmt.Printf("  relevant hospitals (peer localization): %v\n", da.Peers)
	for i, c := range da.Answer.Classes {
		fmt.Printf("  class %d (weight %.0f): age=%v bmi=%v\n",
			i+1, c.Weight, c.Answers.Get("age"), c.Answers.Get("bmi"))
	}
	fmt.Println()
}
