package saintetiq

import (
	"fmt"
	"sort"
	"strings"
)

// Hierarchy quality metrics. The paper tunes summary precision through the
// BK ("a detailed BK will lead to a greater precision in summary
// description, with the natural consequence of a larger summary", §6.1.1);
// these metrics quantify the resulting hierarchies so ablations can compare
// clustering configurations objectively.

// Quality aggregates structural and semantic measurements of a hierarchy.
type Quality struct {
	// Nodes, Leaves, Depth and Branching describe the shape.
	Nodes     int
	Leaves    int
	Depth     int
	Branching float64
	// Homogeneity is the weight-averaged descriptor purity of the internal
	// nodes: 1 when every node's extent agrees on one descriptor per
	// attribute, approaching 1/|labels| for uninformative nodes.
	Homogeneity float64
	// Specificity is the weight-averaged fraction of each attribute's
	// vocabulary NOT present in a node's intent: specific summaries
	// exclude most descriptors, the root typically excludes none.
	Specificity float64
	// RootScore is the category-utility of the root partition.
	RootScore float64
}

// String renders the metrics compactly.
func (q Quality) String() string {
	return fmt.Sprintf("nodes=%d leaves=%d depth=%d branching=%.2f homogeneity=%.3f specificity=%.3f rootCU=%.4f",
		q.Nodes, q.Leaves, q.Depth, q.Branching, q.Homogeneity, q.Specificity, q.RootScore)
}

// Measure computes the hierarchy's quality metrics.
func (t *Tree) Measure() Quality {
	q := Quality{
		Nodes:     t.NodeCount(),
		Leaves:    t.LeafCount(),
		Depth:     t.Depth(),
		Branching: t.AvgBranching(),
	}
	var homW, homSum, speW, speSum float64
	t.Walk(func(n Node) bool {
		count := n.Count()
		if count <= 0 {
			return true
		}
		homSum += count * t.nodePurity(n.i)
		homW += count
		speSum += count * t.nodeSpecificity(n.i)
		speW += count
		return true
	})
	if homW > 0 {
		q.Homogeneity = homSum / homW
	}
	if speW > 0 {
		q.Specificity = speSum / speW
	}
	// The root CU as scoreOperators computes it, from class sums read
	// without caching them: readers may share the tree.
	if k := t.nodes[root].kids; k > 0 {
		total := t.nodes[root].count
		var intra float64
		for c := t.nodes[root].first; c != none; c = t.nodes[c].next {
			intra += plainTerm(t.nodes[c].count, total, t.classSum(c))
		}
		q.RootScore = (intra - plainTerm(total, total, t.classSum(root))) / float64(k)
	}
	return q
}

// nodePurity is the mean, over attributes, of the squared descriptor
// frequencies (Gini-style purity: 1 iff a single descriptor per attribute).
func (t *Tree) nodePurity(i int32) float64 {
	count := t.nodes[i].count
	if count == 0 {
		return 0
	}
	var total float64
	for a := range t.attrs {
		var s float64
		for _, c := range t.attrRow(t.counts, i, a) {
			if c > 0 {
				p := c / count
				s += p * p
			}
		}
		total += s
	}
	return total / float64(len(t.attrs))
}

// nodeSpecificity is the mean, over attributes, of the excluded-vocabulary
// fraction.
func (t *Tree) nodeSpecificity(i int32) float64 {
	var total float64
	for a := range t.attrs {
		present := 0
		for _, c := range t.attrRow(t.counts, i, a) {
			if c > 0 {
				present++
			}
		}
		total += 1 - float64(present)/float64(len(t.attrs[a].labels))
	}
	return total / float64(len(t.attrs))
}

// Level returns the summaries at the given depth (the paper: "general
// trends in the data could be identified in the very first levels of the
// tree whereas precise information has to be looked at near the leaves").
// Leaves shallower than the requested depth are included, so the returned
// set always covers the whole extent.
func (t *Tree) Level(depth int) []Node {
	var out []Node
	var walk func(n Node, d int)
	walk = func(n Node, d int) {
		if d == depth || n.IsLeaf() {
			out = append(out, n)
			return
		}
		for c := range n.Children() {
			walk(c, d+1)
		}
	}
	walk(t.Root(), 0)
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// DescribeLevel renders one hierarchy level as human-readable trend lines,
// most significant (heaviest) summaries first.
func (t *Tree) DescribeLevel(depth int) string {
	nodes := t.Level(depth)
	sort.Slice(nodes, func(i, j int) bool {
		if ci, cj := nodes[i].Count(), nodes[j].Count(); ci != cj {
			return ci > cj
		}
		return nodes[i].ID() < nodes[j].ID()
	})
	var sb strings.Builder
	total := t.Root().Count()
	for _, n := range nodes {
		pct := 0.0
		if total > 0 {
			pct = 100 * n.Count() / total
		}
		fmt.Fprintf(&sb, "%5.1f%% %s\n", pct, t.intentString(n))
	}
	return sb.String()
}
