package harness

import (
	"fmt"
	"os"

	"github.com/joda-explore/betze/internal/fsatomic"
	"github.com/joda-explore/betze/internal/obs"
)

// Outputs are the CLIs' -trace and -metrics-out destinations as one obs
// scope: events stream to a JSON-lines trace file, and Close publishes the
// registry's snapshot atomically, also for a run that failed. The trace is
// an append stream whose partial content is the point of a crash
// investigation, so it is not published atomically.
type Outputs struct {
	obs.Scope
	trace       *os.File
	metricsPath string
}

// OpenOutputs opens the destinations whose paths are set.
func OpenOutputs(tracePath, metricsPath string) (*Outputs, error) {
	o := &Outputs{metricsPath: metricsPath}
	if tracePath != "" {
		//lint:ignore atomicwrite trace is an append stream, partial content is wanted after a crash
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, fmt.Errorf("-trace: %w", err)
		}
		o.trace, o.Trace = f, obs.NewRecorder(f)
	}
	if metricsPath != "" {
		o.Metrics = obs.NewRegistry()
	}
	return o, nil
}

// Close closes the trace, reporting the first event it could not write,
// then writes the metrics snapshot. Calls after the first do nothing.
func (o *Outputs) Close() error {
	if o.trace != nil {
		err := o.Trace.Err()
		if cerr := o.trace.Close(); err == nil {
			err = cerr
		}
		o.trace = nil
		if err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
	}
	if o.metricsPath == "" {
		return nil
	}
	f, err := fsatomic.Create(o.metricsPath)
	o.metricsPath = ""
	if err == nil {
		defer f.Close()
		if err = o.Metrics.WriteJSON(f); err == nil {
			err = f.Commit()
		}
	}
	if err != nil {
		return fmt.Errorf("-metrics-out: %w", err)
	}
	return nil
}
