// Package query implements summary querying (paper §5, FQAS'04 [31]):
// reformulating selection queries into the Background Knowledge vocabulary,
// valuating summaries against the resulting proposition, selecting the most
// abstract satisfying summaries, and deriving the two services the paper
// builds on top — peer localization and approximate answering.
package query

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/data"
	"p2psum/internal/saintetiq"
)

// Clause is one conjunct of a flexible query: attribute IN {labels}. The
// labels are descriptors of the Background Knowledge (the paper's example:
// BMI in {underweight, normal}).
type Clause struct {
	Attr   string
	Labels []string
}

// String renders "(bmi in underweight|normal)".
func (c Clause) String() string {
	return "(" + c.Attr + " in " + strings.Join(c.Labels, "|") + ")"
}

// Query is a flexible selection query: a conjunction of clauses plus the
// attributes to report. It is the proposition P of §5.2 in structured form.
type Query struct {
	Select []string
	Where  []Clause
}

// String renders the proposition in the paper's conjunctive style.
func (q Query) String() string {
	parts := make([]string, len(q.Where))
	for i, c := range q.Where {
		parts[i] = c.String()
	}
	return "select " + strings.Join(q.Select, ",") + " where " + strings.Join(parts, " AND ")
}

// Validate checks the query against a BK: attributes exist, labels belong to
// the vocabularies, clauses are non-empty.
func (q Query) Validate(b *bk.BK) error {
	if len(q.Where) == 0 {
		return errors.New("query: empty where clause")
	}
	for _, sel := range q.Select {
		if b.Attr(sel) == nil {
			return fmt.Errorf("query: unknown select attribute %q", sel)
		}
	}
	for _, c := range q.Where {
		a := b.Attr(c.Attr)
		if a == nil {
			return fmt.Errorf("query: unknown attribute %q", c.Attr)
		}
		if len(c.Labels) == 0 {
			return fmt.Errorf("query: clause on %q has no descriptors", c.Attr)
		}
		for _, lab := range c.Labels {
			if !a.HasLabel(lab) {
				return fmt.Errorf("query: label %q not in vocabulary of %q", lab, c.Attr)
			}
		}
	}
	return nil
}

// Op is a comparison operator of a raw selection predicate.
type Op int

// Raw predicate operators.
const (
	Eq Op = iota
	Lt
	Le
	Gt
	Ge
	Between
	In
)

// Predicate is a selection predicate over raw values, before reformulation.
type Predicate struct {
	Attr string
	Op   Op
	Num  float64  // numeric operand (Eq/Lt/Le/Gt/Ge, low end of Between)
	Num2 float64  // high end of Between
	Strs []string // categorical operand (Eq uses Strs[0], In uses all)
}

// Reformulate rewrites a raw selection query into a flexible one (§5.1):
// each predicate's constant is replaced by the BK descriptors that could
// describe matching values. This expansion may introduce false positives
// but never false negatives (QS ⊆ QS*).
func Reformulate(b *bk.BK, sel []string, preds []Predicate) (Query, error) {
	q := Query{Select: sel}
	for _, p := range preds {
		a := b.Attr(p.Attr)
		if a == nil {
			return Query{}, fmt.Errorf("query: unknown attribute %q", p.Attr)
		}
		var labels []string
		if a.Kind == data.Numeric {
			lo, hi := math.Inf(-1), math.Inf(1)
			switch p.Op {
			case Eq:
				lo, hi = p.Num, p.Num
			case Lt, Le:
				hi = p.Num
			case Gt, Ge:
				lo = p.Num
			case Between:
				lo, hi = p.Num, p.Num2
			default:
				return Query{}, fmt.Errorf("query: operator %d not applicable to numeric %q", p.Op, p.Attr)
			}
			var err error
			labels, err = b.DescriptorsForRange(p.Attr, lo, hi)
			if err != nil {
				return Query{}, err
			}
		} else {
			if p.Op != Eq && p.Op != In {
				return Query{}, fmt.Errorf("query: operator %d not applicable to categorical %q", p.Op, p.Attr)
			}
			for _, s := range p.Strs {
				ms := a.MapCategorical(s)
				for _, m := range ms {
					labels = append(labels, m.Label)
				}
			}
			labels = dedupe(labels)
		}
		if len(labels) == 0 {
			return Query{}, fmt.Errorf("query: predicate on %q selects no descriptor", p.Attr)
		}
		q.Where = append(q.Where, Clause{Attr: p.Attr, Labels: labels})
	}
	if err := q.Validate(b); err != nil {
		return Query{}, err
	}
	return q, nil
}

// ReformulateWithTaxonomy is Reformulate with super-concept support: any
// categorical operand naming a taxonomy group (e.g. disease = infectious
// under the SNOMED-like medical taxonomy) expands to the group's member
// descriptors before the regular rewriting.
func ReformulateWithTaxonomy(b *bk.BK, tax *bk.Taxonomy, sel []string, preds []Predicate) (Query, error) {
	if tax == nil {
		return Reformulate(b, sel, preds)
	}
	if err := tax.Validate(b); err != nil {
		return Query{}, err
	}
	expanded := make([]Predicate, len(preds))
	for i, p := range preds {
		expanded[i] = p
		if p.Attr != tax.Attr() || len(p.Strs) == 0 {
			continue
		}
		var out []string
		for _, s := range p.Strs {
			if members := tax.Expand(s); members != nil {
				out = append(out, members...)
			} else {
				out = append(out, s)
			}
		}
		expanded[i].Strs = dedupe(out)
		if len(expanded[i].Strs) > 1 && expanded[i].Op == Eq {
			expanded[i].Op = In
		}
	}
	return Reformulate(b, sel, expanded)
}

func dedupe(in []string) []string {
	seen := make(map[string]bool, len(in))
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// Valuation is the qualification of a summary against the proposition.
type Valuation int

// Valuation levels, ordered.
const (
	// NotSat: some clause shares no descriptor with the summary intent —
	// no record below can match.
	NotSat Valuation = iota
	// PartialSat: every clause intersects the intent but some clause does
	// not contain it — some records below may match.
	PartialSat
	// FullSat: every clause contains the summary's whole intent on its
	// attribute — every record below matches the flexible query.
	FullSat
)

// String names the valuation.
func (v Valuation) String() string {
	switch v {
	case NotSat:
		return "not-satisfied"
	case PartialSat:
		return "partially-satisfied"
	case FullSat:
		return "fully-satisfied"
	default:
		return "?"
	}
}

// compiled resolves a query's labels to canonical indexes of a tree.
type compiled struct {
	attrs  []int    // tree attribute index per clause
	labels [][]int  // ascending, duplicate-free canonical label indexes per clause
	masks  [][]bool // per clause: canonical label index -> named by the clause
}

func compile(t *saintetiq.Tree, q Query) (*compiled, error) {
	n := len(q.Where)
	c := &compiled{attrs: make([]int, n), labels: make([][]int, n), masks: make([][]bool, n)}
	width := 0
	for i, cl := range q.Where {
		a := t.AttrIndex(cl.Attr)
		if a < 0 {
			return nil, fmt.Errorf("query: attribute %q not summarized", cl.Attr)
		}
		c.attrs[i] = a
		width += len(t.AttrLabels(a))
	}
	// Every clause's mask and label list is a capped window of one array.
	bits, idx := make([]bool, width), make([]int, 0, width)
	for i, cl := range q.Where {
		a := c.attrs[i]
		w := len(t.AttrLabels(a))
		mask := bits[:w:w]
		bits = bits[w:]
		for _, lab := range cl.Labels {
			j := t.LabelIndex(a, lab)
			if j < 0 {
				return nil, fmt.Errorf("query: label %q unknown on %q", lab, cl.Attr)
			}
			mask[j] = true
		}
		start := len(idx)
		for j, in := range mask {
			if in {
				idx = append(idx, j)
			}
		}
		c.labels[i] = idx[start:len(idx):len(idx)]
		c.masks[i] = mask
	}
	return c, nil
}

// valuate qualifies one summary node: a clause the intent does not meet
// rules the node out, a clause the intent reaches beyond makes it partial.
func (c *compiled) valuate(n saintetiq.Node) Valuation {
	result := FullSat
	for i, a := range c.attrs {
		met, beyond := false, false
		mask := c.masks[i]
		for j, cnt := range n.LabelCounts(a) {
			if cnt > 0 {
				if mask[j] {
					met = true
				} else {
					beyond = true
				}
			}
		}
		switch {
		case !met:
			return NotSat
		case beyond:
			result = PartialSat
		}
	}
	return result
}

// Selection is the outcome of evaluating a query against a hierarchy.
type Selection struct {
	// Summaries is ZQ: the most abstract summaries satisfying the query.
	Summaries []saintetiq.Node
	// Visited counts the nodes examined by the descent (the paper's "fast
	// exploration of the hierarchy").
	Visited int
}

// Select walks the hierarchy and returns ZQ (§5.2): fully satisfying nodes
// are taken as-is (most abstract), partially satisfying internal nodes are
// descended, and non-satisfying subtrees are pruned. Leaves are decidable
// (single descriptor per attribute), so partial leaves cannot occur; they
// are kept defensively.
func Select(t *saintetiq.Tree, q Query) (*Selection, error) {
	c, err := compile(t, q)
	if err != nil {
		return nil, err
	}
	return c.selectTree(t), nil
}

// selectTree runs the ZQ walk with an already-compiled proposition. The
// compiled form is vocabulary-level, so one compilation serves every
// hierarchy sharing the BK — a store query compiles once and walks
// every shard with it.
func (c *compiled) selectTree(t *saintetiq.Tree) *Selection {
	sel := &Selection{}
	sel.Visited = c.walk(t, func(z saintetiq.Node) { sel.Summaries = append(sel.Summaries, z) })
	return sel
}

// walk is the ZQ descent: it hands every selected summary to take, in
// preorder, and returns the number of nodes visited. The descent keeps a
// stack of the nodes still to visit: a partially satisfying internal node
// pushes its children last first, so they pop in order.
func (c *compiled) walk(t *saintetiq.Tree, take func(saintetiq.Node)) int {
	if t.Empty() {
		return 0
	}
	var buf [64]saintetiq.Node
	stack := append(buf[:0], t.Root())
	visited := 0
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visited++
		switch c.valuate(n) {
		case FullSat:
			take(n)
		case PartialSat:
			if n.IsLeaf() {
				take(n)
				continue
			}
			top := len(stack)
			for ch := range n.Children() {
				stack = append(stack, ch)
			}
			slices.Reverse(stack[top:])
		}
	}
	return visited
}

// Peers returns PQ: the union of the peer extents of the selected summaries
// (§5.2.1), sorted.
func (s *Selection) Peers() []saintetiq.PeerID {
	n := 0
	for _, z := range s.Summaries {
		n += z.PeerCount()
	}
	buf := make([]saintetiq.PeerID, 0, n)
	for _, z := range s.Summaries {
		buf = z.AppendPeerIDs(buf)
	}
	return sortedPeers(buf)
}

// Weight returns the total tuple weight of the selected summaries.
func (s *Selection) Weight() float64 {
	var w float64
	for _, z := range s.Summaries {
		w += z.Count()
	}
	return w
}

// Class is one aggregation class of the approximate answer (§5.2.2):
// summaries sharing the same interpretation of the proposition. A class is
// a row: its label sets and measures hold at most one entry per attribute,
// in ascending attribute order.
type Class struct {
	// Interpretation gives each where-attribute the descriptors of the
	// class on it (the intersection of intent and clause).
	Interpretation LabelSets
	// Answers gives each select-attribute the union of descriptors that
	// characterize the class (the approximate answer).
	Answers LabelSets
	// Weight is the tuple weight the class accounts for.
	Weight float64
	// Peers is the class's peer extent.
	Peers []saintetiq.PeerID
	// Measures aggregates the numeric select attributes over the class.
	Measures AttrMeasures
}

// LabelSet is one attribute's descriptors within a class.
type LabelSet struct {
	Attr   string
	Labels []string
}

// LabelSets is a class's descriptors per attribute, in ascending attribute
// order with at most one entry per attribute. The wire codec writes it in
// that order and rejects any other.
type LabelSets []LabelSet

// Get returns attr's descriptors, nil when s has no entry for it.
func (s LabelSets) Get(attr string) []string {
	for _, ls := range s {
		if ls.Attr == attr {
			return ls.Labels
		}
	}
	return nil
}

// MarshalJSON renders s as the JSON object {attr: labels} (null when nil).
func (s LabelSets) MarshalJSON() ([]byte, error) {
	return marshalObject(s, func(ls LabelSet) (string, any) { return ls.Attr, ls.Labels })
}

// AttrMeasure is one attribute's measure within a class.
type AttrMeasure struct {
	Attr    string
	Measure cells.Measure
}

// AttrMeasures is a class's measures per attribute, ordered like LabelSets.
type AttrMeasures []AttrMeasure

// Get returns attr's measure, the zero Measure when m has no entry for it.
func (m AttrMeasures) Get(attr string) cells.Measure {
	for _, am := range m {
		if am.Attr == attr {
			return am.Measure
		}
	}
	return cells.Measure{}
}

// MarshalJSON renders m as the JSON object {attr: measure} (null when nil).
func (m AttrMeasures) MarshalJSON() ([]byte, error) {
	return marshalObject(m, func(am AttrMeasure) (string, any) { return am.Attr, am.Measure })
}

// marshalObject renders per-attribute rows as the JSON object a map keyed
// by attribute renders to: keys ascending, null for a nil row.
func marshalObject[T any](rows []T, entry func(T) (string, any)) ([]byte, error) {
	var m map[string]any
	if rows != nil {
		m = make(map[string]any, len(rows))
		for _, r := range rows {
			k, v := entry(r)
			m[k] = v
		}
	}
	return json.Marshal(m)
}

// Answer is a complete approximate answer.
type Answer struct {
	Query   Query
	Classes []Class
}

// Approximate aggregates the selected summaries into interpretation classes
// and derives, for every select attribute, the union of descriptors
// characterizing each class — the paper's §5.2.2 example yields
// age = {young} for female anorexia patients with underweight/normal BMI.
func Approximate(t *saintetiq.Tree, q Query, sel *Selection) (*Answer, error) {
	c, err := compile(t, q)
	if err != nil {
		return nil, err
	}
	p, err := newPlan(t, q, c)
	if err != nil {
		return nil, err
	}
	acc := p.accumulator()
	for _, z := range sel.Summaries {
		acc.add(z)
	}
	ans, _ := acc.answer()
	acc.release()
	return ans, nil
}

// String renders the answer in the paper's narrative style.
func (a *Answer) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", a.Query)
	for i, c := range a.Classes {
		fmt.Fprintf(&sb, "class %d ", i+1)
		var parts []string
		for _, cl := range a.Query.Where {
			parts = append(parts, strings.Join(c.Interpretation.Get(cl.Attr), "|"))
		}
		fmt.Fprintf(&sb, "{%s} weight=%.2f:", strings.Join(parts, ", "), c.Weight)
		for _, selAttr := range a.Query.Select {
			fmt.Fprintf(&sb, " %s={%s}", selAttr, strings.Join(c.Answers.Get(selAttr), ","))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// MatchRecord decides ground truth: does a raw record satisfy the flexible
// query under the BK? A record matches a clause when one of its descriptors
// on the attribute belongs to the clause's set. Experiments use this to
// measure false positives/negatives of summary-based localization.
func MatchRecord(b *bk.BK, rel *data.Relation, rec data.Record, q Query) bool {
	for _, cl := range q.Where {
		i := rel.Schema().Index(cl.Attr)
		if i < 0 {
			return false
		}
		labels, err := b.DescriptorsForValue(cl.Attr, rec.Values[i])
		if err != nil || len(labels) == 0 {
			return false
		}
		hit := false
		for _, lab := range labels {
			for _, want := range cl.Labels {
				if lab == want {
					hit = true
					break
				}
			}
			if hit {
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}
