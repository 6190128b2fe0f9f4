// Package cells implements the SaintEtiQ mapping service (paper §3.2.1).
//
// Mapping rewrites each raw tuple into the grid cells of the multi-
// dimensional descriptor space induced by the Background Knowledge: every
// combination of one positively-graded descriptor per summarized attribute
// is a cell, and the tuple contributes to each such cell with a weight equal
// to the product of its grades (so, under Ruspini partitions, one tuple
// distributes exactly one unit of count over its cells — Table 2's
// "tuple count" column). Cells accumulate a record count, the per-attribute
// maximal membership grades, and attribute-dependent measures (min, max,
// mean, standard deviation) as the paper prescribes.
package cells

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"p2psum/internal/bk"
	"p2psum/internal/data"
	"p2psum/internal/fuzzy"
)

// KeySep separates descriptor labels inside a cell key. Labels must not
// contain it; the mapper enforces this at construction time.
const KeySep = "\x1f"

// Measure accumulates weighted statistics of one numeric attribute over the
// raw values mapped into a cell or summary ("every new (coarser) tuple
// stores a record count and attribute-dependent measures", §3.2.1).
type Measure struct {
	Weight float64 // total weight of contributions
	Min    float64
	Max    float64
	Sum    float64 // weighted sum
	SumSq  float64 // weighted sum of squares
}

// NewMeasure returns an empty measure.
func NewMeasure() Measure {
	return Measure{Min: math.Inf(1), Max: math.Inf(-1)}
}

// Add folds one raw value with the given weight.
func (m *Measure) Add(x, w float64) {
	if w <= 0 {
		return
	}
	m.Weight += w
	m.Sum += w * x
	m.SumSq += w * x * x
	if x < m.Min {
		m.Min = x
	}
	if x > m.Max {
		m.Max = x
	}
}

// Merge folds another measure into m.
func (m *Measure) Merge(o Measure) {
	if o.Weight == 0 {
		return
	}
	m.Weight += o.Weight
	m.Sum += o.Sum
	m.SumSq += o.SumSq
	if o.Min < m.Min {
		m.Min = o.Min
	}
	if o.Max > m.Max {
		m.Max = o.Max
	}
}

// Cell is one populated cell of the descriptor grid: a coarse tuple.
type Cell struct {
	// Labels holds one descriptor label per BK attribute, in BK order.
	Labels []string
	// Grades holds, per BK attribute, the maximum membership grade over the
	// tuples mapped into this cell (the paper's "0.3/adult ... computed as
	// the maximum of membership grades of tuple values to adult in c3").
	Grades []float64
	// Count is the total tuple weight of the cell (Table 2 tuple count).
	Count float64
	// Measures carries the weighted statistics of each numeric BK
	// attribute, indexed like Labels (zero-valued for categorical ones).
	Measures []Measure
}

// Key returns the canonical identity of the cell's descriptor combination.
func (c *Cell) Key() string { return strings.Join(c.Labels, KeySep) }

// Clone deep-copies the cell.
func (c *Cell) Clone() *Cell {
	out := &Cell{
		Labels:   append([]string(nil), c.Labels...),
		Grades:   append([]float64(nil), c.Grades...),
		Count:    c.Count,
		Measures: append([]Measure(nil), c.Measures...),
	}
	return out
}

// String renders "c{young,underweight} count=2.00".
func (c *Cell) String() string {
	parts := make([]string, len(c.Labels))
	for i, lab := range c.Labels {
		if c.Grades[i] >= 1-fuzzy.Epsilon {
			parts[i] = lab
		} else {
			parts[i] = fmt.Sprintf("%.2f/%s", c.Grades[i], lab)
		}
	}
	return fmt.Sprintf("c{%s} count=%.2f", strings.Join(parts, ","), c.Count)
}

// Mapper binds a BK to a relation schema and rewrites records into weighted
// cells.
type Mapper struct {
	bk      *bk.BK
	schema  *data.Schema
	attrPos []int // schema position of each BK attribute
}

// NewMapper validates the BK against the schema and precomputes attribute
// positions.
func NewMapper(b *bk.BK, schema *data.Schema) (*Mapper, error) {
	if err := b.CheckSchema(schema); err != nil {
		return nil, err
	}
	m := &Mapper{bk: b, schema: schema, attrPos: make([]int, b.Len())}
	for i, a := range b.Attrs() {
		for _, lab := range a.Labels() {
			if strings.Contains(lab, KeySep) {
				return nil, fmt.Errorf("cells: label %q contains the key separator", lab)
			}
		}
		m.attrPos[i] = schema.Index(a.Name)
	}
	return m, nil
}

// Map rewrites one record into its weighted cells. The returned cells carry
// the record's weight distribution: weight(cell) = product of grades, and
// per-attribute grades as produced by this record alone. Records whose value
// falls outside the BK on some attribute (no positive descriptor) map to no
// cells, mirroring the paper's grid semantics.
func (m *Mapper) Map(rec data.Record) []*Cell {
	n := m.bk.Len()
	memberships := make([][]fuzzy.Membership, n)
	for i, a := range m.bk.Attrs() {
		v := rec.Values[m.attrPos[i]]
		if a.Kind == data.Numeric {
			memberships[i] = a.MapNumeric(v.Num)
		} else {
			memberships[i] = a.MapCategorical(v.Str)
		}
		if len(memberships[i]) == 0 {
			return nil
		}
	}
	// Cartesian product of memberships.
	var out []*Cell
	idx := make([]int, n)
	for {
		cell := &Cell{
			Labels:   make([]string, n),
			Grades:   make([]float64, n),
			Count:    1,
			Measures: make([]Measure, n),
		}
		for i := 0; i < n; i++ {
			ms := memberships[i][idx[i]]
			cell.Labels[i] = ms.Label
			cell.Grades[i] = ms.Grade
			cell.Count *= ms.Grade
		}
		if cell.Count > fuzzy.Epsilon {
			for i, a := range m.bk.Attrs() {
				cell.Measures[i] = NewMeasure()
				if a.Kind == data.Numeric {
					cell.Measures[i].Add(rec.Values[m.attrPos[i]].Num, cell.Count)
				}
			}
			out = append(out, cell)
		}
		// Advance the odometer.
		k := n - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(memberships[k]) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			break
		}
	}
	return out
}

// Store accumulates cells keyed by descriptor combination. It is the
// incremental interface between a peer's DBMS and its summary hierarchy:
// raw data is parsed once, cells are updated in place.
type Store struct {
	mapper *Mapper
	cells  map[string]*Cell
	tuples float64 // total mapped tuple weight
}

// NewStore creates an empty store bound to the mapper.
func NewStore(m *Mapper) *Store {
	return &Store{mapper: m, cells: make(map[string]*Cell)}
}

// Mapper returns the store's mapper.
func (s *Store) Mapper() *Mapper { return s.mapper }

// Len returns the number of populated cells (K in the paper's complexity
// analysis; K << N).
func (s *Store) Len() int { return len(s.cells) }

// AddRecord maps a record and folds its cells in. It returns the cells the
// record touched (the store's canonical instances, not copies).
func (s *Store) AddRecord(rec data.Record) []*Cell {
	mapped := s.mapper.Map(rec)
	out := make([]*Cell, 0, len(mapped))
	for _, c := range mapped {
		out = append(out, s.fold(c))
		s.tuples += c.Count
	}
	return out
}

// AddRelation maps every record of the relation.
func (s *Store) AddRelation(rel *data.Relation) {
	for _, rec := range rel.Records() {
		s.AddRecord(rec)
	}
}

// AddCell folds an externally produced cell (e.g. from another store during
// a merge) into this store.
func (s *Store) AddCell(c *Cell) {
	s.fold(c.Clone())
	s.tuples += c.Count
}

func (s *Store) fold(c *Cell) *Cell {
	key := c.Key()
	cur, ok := s.cells[key]
	if !ok {
		s.cells[key] = c
		return c
	}
	cur.Count += c.Count
	for i := range cur.Grades {
		if c.Grades[i] > cur.Grades[i] {
			cur.Grades[i] = c.Grades[i]
		}
		cur.Measures[i].Merge(c.Measures[i])
	}
	return cur
}

// Cells returns the populated cells sorted by key (deterministic order).
func (s *Store) Cells() []*Cell {
	keys := make([]string, 0, len(s.cells))
	for k := range s.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Cell, len(keys))
	for i, k := range keys {
		out[i] = s.cells[k]
	}
	return out
}

// String renders the store as the paper's Table 2.
func (s *Store) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cells(%d, weight=%.2f)\n", s.Len(), s.tuples)
	for _, c := range s.Cells() {
		b.WriteString("  " + c.String() + "\n")
	}
	return b.String()
}
