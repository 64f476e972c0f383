// Package obs is the observability layer of the reproduction: a stdlib-only
// metrics registry (counters, gauges, streaming duration histograms) and a
// per-query trace recorder emitting structured JSON-lines events.
//
// The paper's whole point is measurement, yet a benchmark run is itself a
// system worth observing: which engine served a query from cache, where the
// harness spent its wall clock, whether a session hit its timeout. Engines
// and the harness are instrumented against this package; everything is
// opt-in and nil-safe, so an uninstrumented run pays only a context lookup
// and a nil check per call site. Metrics are written per query, per scan
// pass or per campaign, never per document, so a counter is one atomic word
// and a histogram one mutex-guarded bucket array; both write without
// allocating.
//
// Plumbing is context-based: callers attach a Scope (a registry plus a
// recorder, either may be nil) with With, and instrumented code retrieves it
// with From. A zero Scope discards everything.
package obs

import (
	"context"
	"time"
)

// Scope bundles the two observability sinks. Either field may be nil; all
// Scope methods tolerate the zero value.
type Scope struct {
	// Metrics receives counters, gauges and histograms.
	Metrics *Registry
	// Trace receives structured trace events.
	Trace *Recorder
}

// Enabled reports whether the scope has at least one sink attached.
func (s Scope) Enabled() bool { return s.Metrics != nil || s.Trace != nil }

// Record forwards an event to the trace recorder, if any.
func (s Scope) Record(e Event) { s.Trace.Record(e) }

// Counter resolves a counter in the registry (a discarding nil counter
// without one).
func (s Scope) Counter(name string) *Counter { return s.Metrics.Counter(name) }

// Gauge resolves a gauge in the registry.
func (s Scope) Gauge(name string) *Gauge { return s.Metrics.Gauge(name) }

// Observe folds one duration into the named histogram.
func (s Scope) Observe(name string, d time.Duration) {
	s.Metrics.Histogram(name).Observe(d)
}

type ctxKey struct{}

// With attaches the scope to the context so instrumented code down the call
// chain (engines, translators) can report into it.
func With(ctx context.Context, s Scope) context.Context {
	if !s.Enabled() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// From retrieves the scope attached with With; the zero (discarding) Scope
// when the context carries none.
func From(ctx context.Context) Scope {
	if s, ok := ctx.Value(ctxKey{}).(Scope); ok {
		return s
	}
	return Scope{}
}
