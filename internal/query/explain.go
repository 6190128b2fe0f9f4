package query

import (
	"fmt"
	"strings"

	"p2psum/internal/saintetiq"
)

// Explanation traces the §5.2 selection descent: one entry per visited
// summary with its valuation and the decision taken. It powers the sumql
// -explain flag and debugging of Background Knowledge designs.
type Explanation struct {
	Steps []ExplainStep
	// Selected is the resulting ZQ size.
	Selected int
	// Pruned counts subtrees cut by NotSat valuations.
	Pruned int
}

// ExplainStep is one visited node.
type ExplainStep struct {
	NodeID    int
	Depth     int
	Leaf      bool
	Valuation Valuation
	// Decision is "take", "descend" or "prune".
	Decision string
	// Intent renders the node's intent on the query's attributes.
	Intent string
}

// String renders the trace as an indented tree walk.
func (e *Explanation) String() string {
	var sb strings.Builder
	for _, s := range e.Steps {
		kind := "z"
		if s.Leaf {
			kind = "cell"
		}
		fmt.Fprintf(&sb, "%s%s%d %s -> %s %s\n",
			strings.Repeat("  ", s.Depth), kind, s.NodeID, s.Valuation, s.Decision, s.Intent)
	}
	fmt.Fprintf(&sb, "selected %d summaries, pruned %d subtrees\n", e.Selected, e.Pruned)
	return sb.String()
}

// Explain runs the selection while recording every valuation decision.
// The returned selection is identical to Select's.
func Explain(t *saintetiq.Tree, q Query) (*Selection, *Explanation, error) {
	c, err := compile(t, q)
	if err != nil {
		return nil, nil, err
	}
	sel := &Selection{}
	exp := &Explanation{}
	if t.Empty() {
		return sel, exp, nil
	}
	var walk func(n *saintetiq.Node, depth int)
	walk = func(n *saintetiq.Node, depth int) {
		sel.Visited++
		v := c.valuate(n)
		step := ExplainStep{
			NodeID:    n.ID(),
			Depth:     depth,
			Leaf:      n.IsLeaf(),
			Valuation: v,
			Intent:    intentOn(t, n, c),
		}
		switch v {
		case NotSat:
			step.Decision = "prune"
			exp.Pruned++
			exp.Steps = append(exp.Steps, step)
			return
		case FullSat:
			step.Decision = "take"
			exp.Steps = append(exp.Steps, step)
			sel.Summaries = append(sel.Summaries, n)
		case PartialSat:
			if n.IsLeaf() {
				step.Decision = "take"
				exp.Steps = append(exp.Steps, step)
				sel.Summaries = append(sel.Summaries, n)
				return
			}
			step.Decision = "descend"
			exp.Steps = append(exp.Steps, step)
			for _, ch := range n.Children() {
				walk(ch, depth+1)
			}
		}
	}
	walk(t.Root(), 0)
	exp.Selected = len(sel.Summaries)
	return sel, exp, nil
}

// intentOn renders the node's intent restricted to the query attributes.
func intentOn(t *saintetiq.Tree, n *saintetiq.Node, c *compiled) string {
	parts := make([]string, 0, len(c.attrs))
	for i, a := range c.attrs {
		var labs []string
		for j := range c.masks[i] {
			if n.HasLabel(a, j) {
				labs = append(labs, t.Label(a, j))
			}
		}
		parts = append(parts, t.AttrName(a)+":"+strings.Join(labs, "|"))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
