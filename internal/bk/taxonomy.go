package bk

import (
	"fmt"
	"sort"
)

// Taxonomy groups the labels of a categorical attribute into named
// super-concepts, the way SNOMED CT organizes clinical terms into
// hierarchies (§4.1 cites SNOMED CT as the prototypical Common Background
// Knowledge). Queries posed at the group level are expanded into the
// member descriptors before evaluation, so summaries never need to know
// about groups.
type Taxonomy struct {
	attr   string
	groups map[string][]string
	member map[string]string
}

// NewTaxonomy builds a taxonomy for the named attribute. Every label may
// belong to at most one group; group names must not collide with labels of
// the underlying vocabulary (checked against the BK in Validate).
func NewTaxonomy(attr string, groups map[string][]string) (*Taxonomy, error) {
	if attr == "" {
		return nil, fmt.Errorf("bk: taxonomy needs an attribute name")
	}
	t := &Taxonomy{attr: attr, groups: make(map[string][]string), member: make(map[string]string)}
	for g, labels := range groups {
		if g == "" {
			return nil, fmt.Errorf("bk: taxonomy on %q has an empty group name", attr)
		}
		if len(labels) == 0 {
			return nil, fmt.Errorf("bk: group %q is empty", g)
		}
		for _, lab := range labels {
			if prev, dup := t.member[lab]; dup {
				return nil, fmt.Errorf("bk: label %q in groups %q and %q", lab, prev, g)
			}
			t.member[lab] = g
		}
		cp := append([]string(nil), labels...)
		sort.Strings(cp)
		t.groups[g] = cp
	}
	return t, nil
}

// Attr returns the attribute the taxonomy refines.
func (t *Taxonomy) Attr() string { return t.attr }

// Groups returns the group names, sorted.
func (t *Taxonomy) Groups() []string {
	out := make([]string, 0, len(t.groups))
	for g := range t.groups {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// Expand returns the member labels of a group (nil for unknown groups).
func (t *Taxonomy) Expand(group string) []string { return t.groups[group] }

// Validate checks the taxonomy against a BK: the attribute must exist, be
// categorical, every member label must belong to its vocabulary, and no
// group name may shadow a label.
func (t *Taxonomy) Validate(b *BK) error {
	a := b.Attr(t.attr)
	if a == nil {
		return fmt.Errorf("bk: taxonomy attribute %q not in BK", t.attr)
	}
	if a.Variable != nil {
		return fmt.Errorf("bk: taxonomy attribute %q is numeric", t.attr)
	}
	for g, labels := range t.groups {
		if a.HasLabel(g) {
			return fmt.Errorf("bk: group name %q shadows a label of %q", g, t.attr)
		}
		for _, lab := range labels {
			if !a.HasLabel(lab) {
				return fmt.Errorf("bk: group %q member %q not in vocabulary of %q", g, lab, t.attr)
			}
		}
	}
	return nil
}

// MedicalTaxonomy returns the SNOMED-like grouping of the disease
// vocabulary used by the examples: infectious, chronic and nutritional
// conditions.
func MedicalTaxonomy() *Taxonomy {
	t, err := NewTaxonomy("disease", map[string][]string{
		"infectious":  {"malaria", "influenza", "tuberculosis", "hepatitis", "measles", "cholera"},
		"chronic":     {"diabetes", "asthma", "hypertension"},
		"nutritional": {"anorexia"},
	})
	if err != nil {
		panic(err) // static definition; cannot fail
	}
	return t
}
