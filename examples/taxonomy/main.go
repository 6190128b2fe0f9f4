// Taxonomy demonstrates super-concept querying with a SNOMED-like
// vocabulary (§4.1 cites SNOMED CT as the prototypical Common Background
// Knowledge of a medical collaboration): a doctor asks about whole disease
// groups — "infectious", "chronic" — and the query is expanded into member
// descriptors before hitting the summaries.
package main

import (
	"fmt"
	"log"
	"strings"

	"p2psum"
)

func main() {
	bk := p2psum.MedicalBK()
	tax := p2psum.MedicalTaxonomy()
	rel := p2psum.GeneratePatients(5, 20000)
	tree, err := p2psum.Summarize(rel, bk, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("summarized %d records into %d nodes\n\n", rel.Len(), tree.NodeCount())

	fmt.Println("disease taxonomy:")
	for _, g := range tax.Groups() {
		fmt.Printf("  %-12s -> %s\n", g, strings.Join(tax.Expand(g), ", "))
	}
	fmt.Println()

	for _, group := range tax.Groups() {
		q, err := p2psum.ReformulateWithTaxonomy(bk, tax, []string{"age", "bmi"}, []p2psum.Predicate{
			{Attr: "disease", Op: p2psum.Eq, Strs: []string{group}},
		})
		if err != nil {
			log.Fatal(err)
		}
		ans, err := p2psum.AskApproximate(tree, q)
		if err != nil {
			log.Fatal(err)
		}
		// Merge the classes into one profile for the group.
		var weight float64
		ages := map[string]bool{}
		var ageMean, ageW float64
		for _, c := range ans.Classes {
			weight += c.Weight
			for _, lab := range c.Answers.Get("age") {
				ages[lab] = true
			}
			m := c.Measures.Get("age")
			ageMean += m.Sum
			ageW += m.Weight
		}
		var labs []string
		for _, lab := range []string{"young", "adult", "old"} {
			if ages[lab] {
				labs = append(labs, lab)
			}
		}
		fmt.Printf("%-12s %6.0f patients, ages {%s}, mean age %.1f\n",
			group, weight, strings.Join(labs, ","), ageMean/ageW)
	}

	fmt.Println("\ngroup queries expand to member descriptors before evaluation;")
	fmt.Println("summaries and peers never need to know the taxonomy.")
}
