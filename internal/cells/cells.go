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
//
// A cell is its label-index tuple: per BK attribute, the position of its
// descriptor in the attribute's labels. A Store maps each record through
// scratch buffers it owns, holding the record's descriptors as label
// indexes and grades, and finds a combination's cell by a rank key; a Cell
// is allocated the first time its combination is seen, and only then are
// its labels looked up. Cell.Key, the labels joined by KeySep, is derived
// from the labels when asked for.
//
// Cobweb is order-dependent, so cells are enumerated in one fixed order:
// that of their joined keys, as sort.Strings sorts them. The rank key
// reproduces it without joining anything. Every attribute but the last
// ranks its labels by label+KeySep, the last by the plain label
// (AppendLabelRanks), and the key packs the ranks at a fixed width per
// attribute: one byte, and one more per factor of 256 labels. Two joined
// keys agree up to the label of the first attribute where their cells
// differ. For a middle attribute they then compare label+KeySep, and since
// no label contains KeySep neither of the two is a prefix of the other, so
// the comparison ends inside them; for the last attribute they compare the
// plain labels. So byte order of rank keys is joined-key order, also for
// labels holding bytes below KeySep ("a\t" sorts before "a" when a
// separator follows, after it when none does).
package cells

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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

	index []int32 // per attribute, the label index of Labels' entry; nil for a cell built elsewhere
	key   string  // a store cell's rank key
}

// Index returns the cell's label-index tuple: per BK attribute, the
// position of its descriptor among the attribute's labels. It is nil for a
// cell that no Mapper or Store built. Callers must not modify it.
func (c *Cell) Index() []int32 { return c.index }

// Key returns the canonical identity of the cell's descriptor combination.
func (c *Cell) Key() string { return strings.Join(c.Labels, KeySep) }

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

// AppendLabelRanks appends the ranks of an attribute's labels to dst, one
// per label: the order their cells' joined keys sort in, by label+KeySep,
// or by the plain label for the last attribute (see the package comment).
// Equal labels share a rank.
func AppendLabelRanks(dst []int32, labels []string, last bool) []int32 {
	var buf [256]int32 // the order of a vocabulary that fits is sorted off the heap
	order := buf[:0]
	for j := range labels {
		order = append(order, int32(j))
	}
	by := func(x, y int32) int { return cmpRankKeys(labels[x], labels[y], last) }
	slices.SortFunc(order, by)
	base := len(dst)
	dst = append(dst, make([]int32, len(labels))...)
	rank := dst[base:]
	for k := 1; k < len(order); k++ {
		rank[order[k]] = rank[order[k-1]]
		if by(order[k-1], order[k]) != 0 {
			rank[order[k]]++
		}
	}
	return dst
}

// cmpRankKeys compares a+KeySep with b+KeySep, or a with b when last,
// without building either string.
func cmpRankKeys(a, b string, last bool) int {
	n := min(len(a), len(b))
	if c := strings.Compare(a[:n], b[:n]); c != 0 {
		return c
	}
	switch {
	case len(a) == len(b):
		return 0
	case last:
		return cmp.Compare(len(a), len(b)) // a proper prefix sorts first
	case len(a) < len(b): // a's separator meets b's next byte; a tie leaves a+KeySep a prefix of b+KeySep
		return cmp.Or(cmp.Compare(KeySep[0], b[n]), -1)
	default:
		return cmp.Or(cmp.Compare(a[n], KeySep[0]), 1)
	}
}

// Mapper binds a BK to a relation schema and rewrites records into weighted
// cells.
type Mapper struct {
	attrs []mappedAttr
	grid  int // the number of cells of the descriptor grid, capped at maxGrid
}

// maxGrid caps Mapper.grid: room a store makes ahead is bounded by it.
const maxGrid = 1 << 16

// mappedAttr is what mapping needs of one BK attribute.
type mappedAttr struct {
	bk      *bk.AttrBK
	pos     int      // schema position
	labels  []string // the BK's labels
	rank    []int32  // per label, its rank (AppendLabelRanks)
	width   int      // bytes a rank takes in a rank key
	numeric bool
}

// NewMapper validates the BK against the schema and precomputes attribute
// positions and label ranks.
func NewMapper(b *bk.BK, schema *data.Schema) (*Mapper, error) {
	if err := b.CheckSchema(schema); err != nil {
		return nil, err
	}
	m := &Mapper{attrs: make([]mappedAttr, b.Len()), grid: 1}
	for i, a := range b.Attrs() {
		labels := a.Labels()
		m.grid = min(m.grid*len(labels), maxGrid)
		for _, lab := range labels {
			if strings.Contains(lab, KeySep) {
				return nil, fmt.Errorf("cells: label %q contains the key separator", lab)
			}
		}
		width := 1
		for r := len(labels) - 1; r > 255; r >>= 8 {
			width++
		}
		m.attrs[i] = mappedAttr{
			bk:      a,
			pos:     schema.Index(a.Name),
			labels:  labels,
			rank:    AppendLabelRanks(nil, labels, i == b.Len()-1),
			width:   width,
			numeric: a.Kind == data.Numeric,
		}
	}
	return m, nil
}

// Len returns the number of BK attributes.
func (m *Mapper) Len() int { return len(m.attrs) }

// Labels returns the labels of BK attribute a, in BK order: the
// vocabulary Cell.Index points into. Callers must not modify it.
func (m *Mapper) Labels(a int) []string { return m.attrs[a].labels }

// mapping holds one record's graded descriptors, attribute by attribute,
// and the odometer that walks their combinations.
type mapping struct {
	graded []fuzzy.Graded // attribute a's are graded[start[a]:start[a+1]]
	start  []int
	pick   []int // per attribute, the entry of graded the current combination takes
}

func (m *Mapper) newMapping() *mapping {
	return &mapping{start: make([]int, len(m.attrs)+1), pick: make([]int, len(m.attrs))}
}

// grade fills mp with rec's graded descriptors and points the odometer at
// the first combination. It reports false when some attribute grades none:
// the record then maps to no cell, mirroring the paper's grid semantics.
func (m *Mapper) grade(rec data.Record, mp *mapping) bool {
	mp.graded = mp.graded[:0]
	for a, at := range m.attrs {
		mp.start[a], mp.pick[a] = len(mp.graded), len(mp.graded)
		mp.graded = at.bk.AppendGraded(mp.graded, rec.Values[at.pos])
		if len(mp.graded) == mp.start[a] {
			return false
		}
	}
	mp.start[len(m.attrs)] = len(mp.graded)
	return true
}

// weight returns the current combination's share of the record: the
// product of its grades.
func (mp *mapping) weight() float64 {
	w := 1.0
	for _, k := range mp.pick {
		w *= mp.graded[k].Grade
	}
	return w
}

// next advances the odometer, the last attribute fastest, and reports
// false after the last combination.
func (mp *mapping) next() bool {
	for a := len(mp.pick) - 1; a >= 0; a-- {
		if mp.pick[a]++; mp.pick[a] < mp.start[a+1] {
			return true
		}
		mp.pick[a] = mp.start[a]
	}
	return false
}

// fill writes the current combination of rec, of weight w, into the empty
// cell c.
func (m *Mapper) fill(c *Cell, mp *mapping, rec data.Record, w float64) {
	c.Count = w
	for a, at := range m.attrs {
		g := mp.graded[mp.pick[a]]
		c.index[a], c.Labels[a], c.Grades[a] = int32(g.Index), at.labels[g.Index], g.Grade
		c.Measures[a] = NewMeasure()
		if at.numeric {
			c.Measures[a].Add(rec.Values[at.pos].Num, w)
		}
	}
}

// Map rewrites one record into its weighted cells. The returned cells carry
// the record's weight distribution: weight(cell) = product of grades, and
// per-attribute grades as produced by this record alone. Records whose value
// falls outside the BK on some attribute (no positive descriptor) map to no
// cells, mirroring the paper's grid semantics.
func (m *Mapper) Map(rec data.Record) []*Cell {
	mp := m.newMapping()
	if !m.grade(rec, mp) {
		return nil
	}
	n := len(m.attrs)
	var out []*Cell
	for more := true; more; more = mp.next() {
		if w := mp.weight(); w > fuzzy.Epsilon {
			c := &Cell{Labels: make([]string, n), Grades: make([]float64, n), Measures: make([]Measure, n), index: make([]int32, n)}
			m.fill(c, mp, rec, w)
			out = append(out, c)
		}
	}
	return out
}

// Store accumulates cells keyed by descriptor combination. It is the
// incremental interface between a peer's DBMS and its summary hierarchy:
// raw data is parsed once, cells are updated in place.
type Store struct {
	mapper *Mapper
	cells  map[string]*Cell // by rank key
	tuples float64          // total mapped tuple weight

	mp    *mapping // one record's descriptors
	key   []byte   // one combination's rank key
	index []int32  // AddCell's label indexes
	slab  slab     // rows of the cells to come
}

// slab holds the rows of cells not yet created: a store allocates its
// cells a chunk at a time.
type slab struct {
	cells    []Cell
	labels   []string
	grades   []float64
	measures []Measure
	index    []int32
}

// NewStore creates an empty store bound to the mapper.
func NewStore(m *Mapper) *Store {
	return &Store{mapper: m, cells: make(map[string]*Cell), mp: m.newMapping(), index: make([]int32, len(m.attrs))}
}

// Mapper returns the store's mapper.
func (s *Store) Mapper() *Mapper { return s.mapper }

// Len returns the number of populated cells (K in the paper's complexity
// analysis; K << N).
func (s *Store) Len() int { return len(s.cells) }

// AddRecord maps a record and folds its cells in.
func (s *Store) AddRecord(rec data.Record) {
	m, mp := s.mapper, s.mp
	if !m.grade(rec, mp) {
		return
	}
	for more := true; more; more = mp.next() {
		w := mp.weight()
		if !(w > fuzzy.Epsilon) {
			continue
		}
		s.key = s.key[:0]
		for a, at := range m.attrs {
			s.key = appendRank(s.key, at.rank[mp.graded[mp.pick[a]].Index], at.width)
		}
		if c, ok := s.cells[string(s.key)]; ok {
			c.Count += w
			for a, at := range m.attrs {
				if g := mp.graded[mp.pick[a]].Grade; g > c.Grades[a] {
					c.Grades[a] = g
				}
				if at.numeric { // as a cell of its own merged in
					one := NewMeasure()
					one.Add(rec.Values[at.pos].Num, w)
					c.Measures[a].Merge(one)
				}
			}
		} else {
			m.fill(s.newCell(), mp, rec, w)
		}
		s.tuples += w
	}
}

// AddRelation maps every record of the relation. An empty store first
// makes room for a cell per record, or per grid cell if there are fewer.
func (s *Store) AddRelation(rel *data.Relation) {
	if len(s.cells) == 0 {
		n := min(rel.Len(), s.mapper.grid)
		s.cells = make(map[string]*Cell, n)
		s.slab = s.newSlab(n)
	}
	for _, rec := range rel.Records() {
		s.AddRecord(rec)
	}
}

// AddCell folds an externally produced cell (e.g. from another store during
// a merge) into this store. The cell must name one label of the store's BK
// per attribute.
func (s *Store) AddCell(c *Cell) error {
	m := s.mapper
	if len(c.Labels) != len(m.attrs) || len(c.Grades) != len(m.attrs) || len(c.Measures) != len(m.attrs) {
		return fmt.Errorf("cells: cell has %d labels, the BK %d attributes", len(c.Labels), len(m.attrs))
	}
	s.key = s.key[:0]
	for a, at := range m.attrs {
		j := at.bk.LabelIndex(c.Labels[a])
		if j < 0 {
			return fmt.Errorf("cells: label %q unknown on attribute %q", c.Labels[a], at.bk.Name)
		}
		s.index[a] = int32(j)
		s.key = appendRank(s.key, at.rank[j], at.width)
	}
	cur, ok := s.cells[string(s.key)]
	if !ok {
		cur = s.newCell()
		cur.Count = c.Count
		copy(cur.Labels, c.Labels)
		copy(cur.Grades, c.Grades)
		copy(cur.Measures, c.Measures)
		copy(cur.index, s.index)
	} else {
		cur.Count += c.Count
		for i := range cur.Grades {
			if c.Grades[i] > cur.Grades[i] {
				cur.Grades[i] = c.Grades[i]
			}
			cur.Measures[i].Merge(c.Measures[i])
		}
	}
	s.tuples += c.Count
	return nil
}

// newSlab returns a slab of k cells.
func (s *Store) newSlab(k int) slab {
	n := len(s.mapper.attrs)
	return slab{
		cells:    make([]Cell, k),
		labels:   make([]string, k*n),
		grades:   make([]float64, k*n),
		measures: make([]Measure, k*n),
		index:    make([]int32, k*n),
	}
}

// newCell registers an empty cell under the rank key in s.key, its rows
// taken from the slab; an empty slab is refilled with as many cells as the
// store holds, and at least 16.
func (s *Store) newCell() *Cell {
	if len(s.slab.cells) == 0 {
		s.slab = s.newSlab(max(16, len(s.cells)))
	}
	n := len(s.mapper.attrs)
	sl := &s.slab
	c := &sl.cells[0]
	c.Labels, c.Grades, c.Measures, c.index = sl.labels[:n:n], sl.grades[:n:n], sl.measures[:n:n], sl.index[:n:n]
	sl.cells, sl.labels, sl.grades, sl.measures, sl.index = sl.cells[1:], sl.labels[n:], sl.grades[n:], sl.measures[n:], sl.index[n:]
	c.key = string(s.key)
	s.cells[c.key] = c
	return c
}

// appendRank appends rank r at a width of w bytes, most significant first.
func appendRank(dst []byte, r int32, w int) []byte {
	for k := w - 1; k >= 0; k-- {
		dst = append(dst, byte(r>>(8*k)))
	}
	return dst
}

// Cells returns the populated cells in the order of their keys (see the
// package comment).
func (s *Store) Cells() []*Cell {
	out := make([]*Cell, 0, len(s.cells))
	for _, c := range s.cells {
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b *Cell) int { return strings.Compare(a.key, b.key) })
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
