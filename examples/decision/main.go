// Decision illustrates the paper's decision-support motivation (§1): "a
// user may prefer an approximate but fast answer, instead of waiting a
// long time for an exact one". It summarizes a large patient database,
// then answers epidemiological questions twice — exactly, by scanning all
// records, and approximately, from the summary alone — and compares
// answers, sizes and work.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"p2psum"
)

func main() {
	const records = 50000
	bk := p2psum.MedicalBK()
	fmt.Printf("generating %d patient records...\n", records)
	rel := p2psum.GeneratePatients(3, records)

	start := time.Now()
	tree, err := p2psum.Summarize(rel, bk, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("summarized in %v: %d cells -> %d nodes (depth %d)\n",
		time.Since(start).Round(time.Millisecond), tree.LeafCount(), tree.NodeCount(), tree.Depth())

	var csv strings.Builder
	if err := rel.WriteCSV(&csv); err != nil {
		log.Fatal(err)
	}
	blob, err := p2psum.EncodeSummary(tree)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("size: raw %0.1f KB -> summary %.1f KB (%.0fx compression)\n\n",
		float64(csv.Len())/1024, float64(len(blob))/1024, float64(csv.Len())/float64(len(blob)))

	for _, disease := range []string{"malaria", "diabetes", "anorexia"} {
		q, err := p2psum.Reformulate(bk, []string{"age"}, []p2psum.Predicate{
			{Attr: "disease", Op: p2psum.Eq, Strs: []string{disease}},
		})
		if err != nil {
			log.Fatal(err)
		}

		// Exact: full scan of the raw table.
		t0 := time.Now()
		var sum float64
		n := 0
		for _, rec := range rel.Records() {
			if d, _ := rel.Str(rec, "disease"); d == disease {
				age, _ := rel.Num(rec, "age")
				sum += age
				n++
			}
		}
		exact := sum / float64(n)
		exactTime := time.Since(t0)

		// Approximate: summary only.
		t0 = time.Now()
		ans, err := p2psum.AskApproximate(tree, q)
		if err != nil {
			log.Fatal(err)
		}
		var wSum, wTot float64
		var labels []string
		for _, c := range ans.Classes {
			m := c.Measures.Get("age")
			wSum += m.Sum
			wTot += m.Weight
			labels = append(labels, strings.Join(c.Answers.Get("age"), "|"))
		}
		approxTime := time.Since(t0)

		fmt.Printf("age of %s patients (%d records):\n", disease, n)
		fmt.Printf("  exact scan:   mean %5.1f years            in %v\n", exact, exactTime.Round(time.Microsecond))
		fmt.Printf("  from summary: mean %5.1f years, %q  in %v\n",
			wSum/wTot, strings.Join(dedup(labels), ","), approxTime.Round(time.Microsecond))
		fmt.Println()
	}
	fmt.Println("the summary answers in linguistic terms AND recovers the numeric")
	fmt.Println("aggregates from its measures, without rescanning the data.")
}

func dedup(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
