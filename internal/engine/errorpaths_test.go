package engine_test

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"github.com/joda-explore/betze/internal/faultsim"
	"github.com/joda-explore/betze/internal/query"
)

// cancelAfterWriter cancels a context after the first result document is
// written, so the engine is guaranteed to observe a dead context mid-scan.
type cancelAfterWriter struct {
	cancel context.CancelFunc
	writes int
}

func (w *cancelAfterWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes == 1 {
		w.cancel()
	}
	return len(p), nil
}

// TestEnginesCancelMidScan cancels the context after the first returned
// document: every sim must stop scanning and propagate the cancellation
// instead of finishing the full pass.
func TestEnginesCancelMidScan(t *testing.T) {
	// Well over the engines' cancellation-check stride, so an engine that
	// ignores the context would visibly scan on.
	docs := corpus(6000, 60)
	engines := allEngines(t, "ds", docs)
	for _, e := range engines {
		ctx, cancel := context.WithCancel(context.Background())
		sink := &cancelAfterWriter{cancel: cancel}
		_, err := e.Execute(ctx, &query.Query{ID: "q1", Base: "ds"}, sink)
		cancel()
		if err == nil {
			t.Errorf("%s completed a scan under a cancelled context", e.Name())
			continue
		}
		// Parallel engines may still tally in-flight partitions, so only
		// the error contract is asserted, not a scan-count bound.
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s returned %v, want context.Canceled", e.Name(), err)
		}
	}
}

// TestEnginesCancelDuringInjectedLatency uses faultsim's latency injection
// (seed 7, rate 1 spikes q1's first attempt) under an expired deadline: the
// wrapped engine must surface the deadline promptly, for all four sims.
func TestEnginesCancelDuringInjectedLatency(t *testing.T) {
	docs := corpus(50, 61)
	for _, inner := range allEngines(t, "ds", docs) {
		e := faultsim.Wrap(inner, faultsim.Options{Seed: 7, Rate: 1})
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		_, err := e.Execute(ctx, &query.Query{ID: "q1", Base: "ds"}, io.Discard)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s returned %v, want context.DeadlineExceeded", inner.Name(), err)
		}
		if s := e.Schedule(); len(s) != 1 || s[0].Kind != faultsim.KindLatency {
			t.Errorf("%s: schedule %v, want one latency spike", inner.Name(), s)
		}
	}
}
