package saintetiq

import (
	"fmt"
	"math"
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
	t.Walk(func(n *Node) bool {
		if n.count <= 0 {
			return true
		}
		homSum += n.count * t.nodePurity(n)
		homW += n.count
		speSum += n.count * t.nodeSpecificity(n)
		speW += n.count
		return true
	})
	if homW > 0 {
		q.Homogeneity = homSum / homW
	}
	if speW > 0 {
		q.Specificity = speSum / speW
	}
	if terms, parent := classTerms(t.root, nil); len(terms) > 0 {
		q.RootScore = (sumExcept(terms, -1, -1) - parent) / float64(len(terms))
	}
	return q
}

// nodePurity is the mean, over attributes, of the squared descriptor
// frequencies (Gini-style purity: 1 iff a single descriptor per attribute).
func (t *Tree) nodePurity(n *Node) float64 {
	if n.count == 0 {
		return 0
	}
	var total float64
	for a := range t.attrs {
		var s float64
		for _, c := range n.counts[a] {
			if c > 0 {
				p := c / n.count
				s += p * p
			}
		}
		total += s
	}
	return total / float64(len(t.attrs))
}

// nodeSpecificity is the mean, over attributes, of the excluded-vocabulary
// fraction.
func (t *Tree) nodeSpecificity(n *Node) float64 {
	var total float64
	for a := range t.attrs {
		present := 0
		for _, c := range n.counts[a] {
			if c > 0 {
				present++
			}
		}
		total += 1 - float64(present)/float64(len(t.attrs[a].labels))
	}
	return total / float64(len(t.attrs))
}

// PruneLightLeaves removes leaves whose weight is below minWeight,
// restructuring ancestors accordingly (subtracting the removed
// contribution). It returns the number of removed leaves. Degenerate
// chains left behind are collapsed. Pruning keeps summaries bounded when a
// user wants a deliberately coarse view (the paper's precision dial turned
// the other way).
func (t *Tree) PruneLightLeaves(minWeight float64) int {
	var victims []*Node
	for _, leaf := range t.Leaves() {
		if leaf.count < minWeight {
			victims = append(victims, leaf)
		}
	}
	for _, leaf := range victims {
		t.removeLeaf(leaf)
	}
	return len(victims)
}

// removeLeaf subtracts a leaf's aggregates from its ancestors and detaches
// it, collapsing single-child internal nodes.
func (t *Tree) removeLeaf(leaf *Node) {
	delete(t.byKey, leaf.key)
	for p := leaf.parent; p != nil; p = p.parent {
		p.count -= leaf.count
		for a := range t.attrs {
			for j := range p.counts[a] {
				p.counts[a][j] -= leaf.counts[a][j]
				if p.counts[a][j] < 1e-12 {
					p.counts[a][j] = 0
				}
			}
		}
		if p.count < 1e-12 {
			p.count = 0
		}
	}
	parent := leaf.parent
	t.detach(parent, leaf)
	// Collapse chains: an internal non-root node with one child is
	// replaced by that child.
	for parent != nil && parent != t.root && len(parent.children) == 1 {
		child := parent.children[0]
		grand := parent.parent
		t.detach(parent, child)
		t.detach(grand, parent)
		t.attach(grand, child)
		parent = grand
	}
	// An empty root child list is fine (empty tree).
}

// Level returns the summaries at the given depth (the paper: "general
// trends in the data could be identified in the very first levels of the
// tree whereas precise information has to be looked at near the leaves").
// Leaves shallower than the requested depth are included, so the returned
// set always covers the whole extent.
func (t *Tree) Level(depth int) []*Node {
	var out []*Node
	var walk func(n *Node, d int)
	walk = func(n *Node, d int) {
		if d == depth || n.IsLeaf() {
			out = append(out, n)
			return
		}
		for _, c := range n.children {
			walk(c, d+1)
		}
	}
	walk(t.root, 0)
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// IntentLabels exports a node's intent as attribute -> sorted labels.
func (t *Tree) IntentLabels(n *Node) map[string][]string {
	out := make(map[string][]string, len(t.attrs))
	for a, info := range t.attrs {
		var labs []string
		for _, j := range n.LabelIndexes(a) {
			labs = append(labs, info.labels[j])
		}
		if len(labs) > 0 {
			out[info.name] = labs
		}
	}
	return out
}

// DescribeLevel renders one hierarchy level as human-readable trend lines,
// most significant (heaviest) summaries first.
func (t *Tree) DescribeLevel(depth int) string {
	nodes := t.Level(depth)
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].count != nodes[j].count {
			return nodes[i].count > nodes[j].count
		}
		return nodes[i].id < nodes[j].id
	})
	var sb strings.Builder
	total := t.root.count
	for _, n := range nodes {
		pct := 0.0
		if total > 0 {
			pct = 100 * n.count / total
		}
		fmt.Fprintf(&sb, "%5.1f%% %s\n", pct, t.intentString(n))
	}
	return sb.String()
}

// WeightEntropy returns the Shannon entropy (bits) of the leaf weight
// distribution — a balance indicator for the clustering.
func (t *Tree) WeightEntropy() float64 {
	total := t.root.count
	if total <= 0 {
		return 0
	}
	var h float64
	for _, leaf := range t.Leaves() {
		if leaf.count <= 0 {
			continue
		}
		p := leaf.count / total
		h -= p * math.Log2(p)
	}
	return h
}
