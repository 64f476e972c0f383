package engine

import (
	"errors"
	"slices"
	"testing"
)

// TestCatalog pins the naming rules and what each call hands back for the
// engine to release: a store shadows a base until Reset, an import replaces
// a derived dataset of its name, and a name in neither is unknown.
func TestCatalog(t *testing.T) {
	c := NewCatalog[string]("sim")
	get := func(name, want string) {
		t.Helper()
		if v, err := c.Get(name); v != want || (want == "") != errors.Is(err, ErrUnknownDataset) {
			t.Errorf("Get(%s) = %q, %v; want %q", name, v, err, want)
		}
	}
	c.Import("ds", "base ds")
	if _, ok := c.Store("ds", "s1"); ok {
		t.Error("the first store replaced a derived dataset")
	}
	if old, ok := c.Store("ds", "s2"); !ok || old != "s1" {
		t.Errorf("re-store replaced %q, %v; want s1", old, ok)
	}
	get("ds", "s2")
	c.Store("x", "sx")
	if dropped, ok := c.Import("x", "base x"); !ok || dropped != "sx" {
		t.Errorf("import over a store dropped %q, %v; want sx", dropped, ok)
	}
	get("x", "base x")
	if dropped := c.Reset(); !slices.Equal(dropped, []string{"s2"}) {
		t.Errorf("Reset dropped %q, want [s2]", dropped)
	}
	get("ds", "base ds")
	get("x", "base x")
	get("ghost", "")
	bases := c.Bases()
	slices.Sort(bases)
	if !slices.Equal(bases, []string{"base ds", "base x"}) {
		t.Errorf("Bases() = %q", bases)
	}
}
