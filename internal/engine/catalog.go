package engine

import (
	"fmt"
	"sync"
)

// Catalog is an engine's dataset namespace, the one place the naming rules
// of the Engine contract live. Import publishes a base dataset and replaces
// whatever the name held. Store publishes a derived dataset, which shadows a
// base of the same name until Reset drops it. Get reads derived first; a
// name in neither wraps ErrUnknownDataset. Import, Store and Reset return
// the derived values they drop, for an engine whose datasets own files. A
// Catalog is safe for concurrent use.
type Catalog[T any] struct {
	engine  string
	mu      sync.Mutex
	base    map[string]T
	derived map[string]T
}

// NewCatalog returns an empty catalog; engine prefixes its errors.
func NewCatalog[T any](engine string) *Catalog[T] {
	return &Catalog[T]{engine: engine, base: map[string]T{}, derived: map[string]T{}}
}

// Import publishes v as the base dataset name and returns the derived
// dataset of that name it dropped, if any.
func (c *Catalog[T]) Import(name string, v T) (dropped T, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped, ok = c.derived[name]
	delete(c.derived, name)
	c.base[name] = v
	return dropped, ok
}

// Store publishes v as the derived dataset name and returns the derived
// dataset of that name it replaced, if any.
func (c *Catalog[T]) Store(name string, v T) (replaced T, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	replaced, ok = c.derived[name]
	c.derived[name] = v
	return replaced, ok
}

// Get returns the dataset a query on name reads.
func (c *Catalog[T]) Get(name string) (v T, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.derived[name]
	if !ok {
		if v, ok = c.base[name]; !ok {
			err = unknownDataset(c.engine, name)
		}
	}
	return v, err
}

// Reset drops every derived dataset and returns them.
func (c *Catalog[T]) Reset() []T {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := values(c.derived)
	clear(c.derived)
	return dropped
}

// Bases returns the base datasets, shadowed ones included.
func (c *Catalog[T]) Bases() []T {
	c.mu.Lock()
	defer c.mu.Unlock()
	return values(c.base)
}

func values[T any](m map[string]T) []T {
	out := make([]T, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// unknownDataset builds the canonical error for a missing dataset.
func unknownDataset(engine, name string) error {
	return fmt.Errorf("%s: %w %q", engine, ErrUnknownDataset, name)
}
