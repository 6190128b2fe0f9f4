package bk

import (
	"strings"
	"testing"
)

func TestMedicalTaxonomy(t *testing.T) {
	tax := MedicalTaxonomy()
	if tax.Attr() != "disease" {
		t.Errorf("Attr = %q", tax.Attr())
	}
	if err := tax.Validate(Medical()); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	groups := tax.Groups()
	if strings.Join(groups, ",") != "chronic,infectious,nutritional" {
		t.Errorf("Groups = %v", groups)
	}
	inf := tax.Expand("infectious")
	if len(inf) != 6 {
		t.Errorf("infectious expands to %v", inf)
	}
	// Expansion is sorted and stable.
	for i := 1; i < len(inf); i++ {
		if inf[i] < inf[i-1] {
			t.Error("expansion not sorted")
		}
	}
	if tax.Expand("ghost") != nil {
		t.Error("unknown group expanded")
	}
}

func TestNewTaxonomyErrors(t *testing.T) {
	if _, err := NewTaxonomy("", nil); err == nil {
		t.Error("empty attribute accepted")
	}
	if _, err := NewTaxonomy("disease", map[string][]string{"": {"a"}}); err == nil {
		t.Error("empty group name accepted")
	}
	if _, err := NewTaxonomy("disease", map[string][]string{"g": {}}); err == nil {
		t.Error("empty group accepted")
	}
	if _, err := NewTaxonomy("disease", map[string][]string{"g1": {"x"}, "g2": {"x"}}); err == nil {
		t.Error("double membership accepted")
	}
}

func TestTaxonomyValidateErrors(t *testing.T) {
	b := Medical()
	bad, err := NewTaxonomy("ghost", map[string][]string{"g": {"x"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Validate(b); err == nil {
		t.Error("unknown attribute accepted")
	}
	numeric, err := NewTaxonomy("age", map[string][]string{"g": {"young"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := numeric.Validate(b); err == nil {
		t.Error("numeric attribute accepted")
	}
	shadow, err := NewTaxonomy("disease", map[string][]string{"malaria": {"cholera"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := shadow.Validate(b); err == nil {
		t.Error("group shadowing a label accepted")
	}
	outside, err := NewTaxonomy("disease", map[string][]string{"g": {"plague"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := outside.Validate(b); err == nil {
		t.Error("out-of-vocabulary member accepted")
	}
}
