// Package data provides the relational substrate the summarization engine
// consumes: typed schemas, tuples, in-memory relations and CSV interchange.
// It also ships a deterministic synthetic generator for the paper's running
// medical example (the Patient relation of Table 1).
package data

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Kind is the type of an attribute.
type Kind int

const (
	// Numeric attributes hold float64 values and are summarized through
	// fuzzy linguistic variables.
	Numeric Kind = iota
	// Categorical attributes hold string values and are summarized through
	// crisp (possibly hierarchical) vocabularies.
	Categorical
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Attribute is one column of a schema.
type Attribute struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of attributes with unique names.
type Schema struct {
	attrs  []Attribute
	byName map[string]int
}

// NewSchema validates attribute names and builds a schema.
func NewSchema(attrs ...Attribute) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, errors.New("data: schema has no attributes")
	}
	s := &Schema{attrs: make([]Attribute, len(attrs)), byName: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("data: attribute %d has empty name", i)
		}
		if _, dup := s.byName[a.Name]; dup {
			return nil, fmt.Errorf("data: duplicate attribute %q", a.Name)
		}
		s.byName[a.Name] = i
		s.attrs[i] = a
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error.
func MustSchema(attrs ...Attribute) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.attrs) }

// Attr returns the attribute at position i.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Index returns the position of the named attribute, or -1.
func (s *Schema) Index(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Names returns the attribute names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		out[i] = a.Name
	}
	return out
}

// Value is a single attribute value of a tuple: a float for numeric
// attributes, a string for categorical ones.
type Value struct {
	Num float64
	Str string
}

// NumValue wraps a numeric value.
func NumValue(x float64) Value { return Value{Num: x} }

// StrValue wraps a categorical value.
func StrValue(s string) Value { return Value{Str: s} }

// Record is one tuple, positionally aligned with its schema.
type Record struct {
	ID     string
	Values []Value
}

// Relation is an in-memory table.
type Relation struct {
	name    string
	schema  *Schema
	records []Record
}

// NewRelation creates an empty relation over the schema.
func NewRelation(name string, schema *Schema) *Relation {
	return &Relation{name: name, schema: schema}
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.records) }

// Records returns the tuples in insertion order. Callers must not mutate.
func (r *Relation) Records() []Record { return r.records }

// Insert validates arity and appends a tuple.
func (r *Relation) Insert(rec Record) error {
	if len(rec.Values) != r.schema.Len() {
		return fmt.Errorf("data: relation %s: record %q has %d values, schema has %d",
			r.name, rec.ID, len(rec.Values), r.schema.Len())
	}
	r.records = append(r.records, rec)
	return nil
}

// MustInsert is Insert that panics on error; for literals in tests/examples.
func (r *Relation) MustInsert(rec Record) {
	if err := r.Insert(rec); err != nil {
		panic(err)
	}
}

// Num returns the numeric value of attribute attr in record rec.
func (r *Relation) Num(rec Record, attr string) (float64, error) {
	i := r.schema.Index(attr)
	if i < 0 {
		return 0, fmt.Errorf("data: unknown attribute %q", attr)
	}
	if r.schema.Attr(i).Kind != Numeric {
		return 0, fmt.Errorf("data: attribute %q is not numeric", attr)
	}
	return rec.Values[i].Num, nil
}

// Str returns the categorical value of attribute attr in record rec.
func (r *Relation) Str(rec Record, attr string) (string, error) {
	i := r.schema.Index(attr)
	if i < 0 {
		return "", fmt.Errorf("data: unknown attribute %q", attr)
	}
	if r.schema.Attr(i).Kind != Categorical {
		return "", fmt.Errorf("data: attribute %q is not categorical", attr)
	}
	return rec.Values[i].Str, nil
}

// String renders the relation as a compact text table (used by examples to
// print the paper's Table 1).
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%d tuples)\n", r.name, len(r.records))
	b.WriteString("Id")
	for _, a := range r.schema.attrs {
		b.WriteString("\t" + a.Name)
	}
	b.WriteString("\n")
	for _, rec := range r.records {
		b.WriteString(rec.ID)
		for i, v := range rec.Values {
			if r.schema.attrs[i].Kind == Numeric {
				fmt.Fprintf(&b, "\t%s", strconv.FormatFloat(v.Num, 'f', -1, 64))
			} else {
				fmt.Fprintf(&b, "\t%s", v.Str)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// WriteCSV serializes the relation with a header row ("id" then attributes).
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"id"}, r.schema.Names()...)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("data: write csv header: %w", err)
	}
	row := make([]string, 1+r.schema.Len())
	for _, rec := range r.records {
		row[0] = rec.ID
		for i, v := range rec.Values {
			if r.schema.attrs[i].Kind == Numeric {
				row[1+i] = strconv.FormatFloat(v.Num, 'f', -1, 64)
			} else {
				row[1+i] = v.Str
			}
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("data: write csv row %s: %w", rec.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a relation written by WriteCSV (or any CSV whose first
// column is an id and whose remaining columns match the schema order).
func ReadCSV(name string, schema *Schema, rd io.Reader) (*Relation, error) {
	cr := csv.NewReader(rd)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("data: read csv header: %w", err)
	}
	if len(header) != 1+schema.Len() {
		return nil, fmt.Errorf("data: csv has %d columns, schema wants %d", len(header), 1+schema.Len())
	}
	rel := NewRelation(name, schema)
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("data: read csv line %d: %w", line, err)
		}
		rec := Record{ID: row[0], Values: make([]Value, schema.Len())}
		for i := 0; i < schema.Len(); i++ {
			cell := row[1+i]
			if schema.Attr(i).Kind == Numeric {
				x, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					return nil, fmt.Errorf("data: csv line %d, attribute %q: %w", line, schema.Attr(i).Name, err)
				}
				rec.Values[i] = NumValue(x)
			} else {
				rec.Values[i] = StrValue(cell)
			}
		}
		rel.records = append(rel.records, rec)
	}
	return rel, nil
}

// DistinctStr returns the sorted distinct values of a categorical attribute.
func (r *Relation) DistinctStr(attr string) ([]string, error) {
	i := r.schema.Index(attr)
	if i < 0 {
		return nil, fmt.Errorf("data: unknown attribute %q", attr)
	}
	if r.schema.Attr(i).Kind != Categorical {
		return nil, fmt.Errorf("data: attribute %q is not categorical", attr)
	}
	seen := make(map[string]bool)
	for _, rec := range r.records {
		seen[rec.Values[i].Str] = true
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out, nil
}
