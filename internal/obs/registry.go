package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric: one atomic word.
// The nil counter discards all writes, so Registry lookups never need an
// enabled-check. The zero value is ready to use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count (0 for the nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float metric (resident documents, pool size, …):
// one atomic word holding the float's bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value reads the gauge (0 for the nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry is a concurrency-safe, name-keyed collection of metrics.
// Metrics are created on first use; the nil registry hands out nil
// (discarding) metrics, making instrumentation free when observability is
// off. One mutex guards the three name maps; it is held for a map lookup
// (or insert) only, never while a metric is written. The zero value is
// ready to use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// lookup returns (*m)[name], creating the map and the metric on first use.
// The caller holds the registry's mutex.
func lookup[T any](m *map[string]*T, name string) *T {
	v, ok := (*m)[name]
	if !ok {
		if *m == nil {
			*m = map[string]*T{}
		}
		v = new(T)
		(*m)[name] = v
	}
	return v
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return lookup(&r.counters, name)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return lookup(&r.gauges, name)
}

// Histogram returns the named duration histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return lookup(&r.histograms, name)
}

// Snapshot is the exportable state of a registry at one point in time.
// Map keys are metric names; histogram values carry percentile summaries.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric. It is safe to call concurrently with
// metric updates; each histogram is summarised at one instant.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, c := range r.counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range r.gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range r.histograms {
		s.Histograms[k] = h.Snapshot()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON (the expvar-style
// exposition format of the /debug/metrics endpoint and -metrics-out files).
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encoding metrics: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Names lists every registered metric name, sorted (for stable test output).
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for k := range r.counters {
		names = append(names, k)
	}
	for k := range r.gauges {
		names = append(names, k)
	}
	for k := range r.histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
