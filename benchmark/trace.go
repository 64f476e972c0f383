package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/joda-explore/betze/internal/fsatomic"
)

// tracer records spans in memory around the benchmark's calls into each
// layer and writes them as JSON lines when the run ends. A nil *tracer
// records nothing, which is how the timed (untraced) run pays no cost.
type tracer struct {
	trace string
	epoch time.Time

	mu    sync.Mutex
	spans []spanRecord
}

// spanRecord is one line of benchmark/out/trace-<workload>.jsonl.
type spanRecord struct {
	Trace   string         `json:"trace"`
	Span    int            `json:"span"`
	Parent  int            `json:"parent"` // 0 for the root span
	Name    string         `json:"name"`
	StartNS int64          `json:"start_ns"`
	EndNS   int64          `json:"end_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// span is an open span. The zero span (from a nil tracer) is inert.
type span struct {
	t  *tracer
	id int
}

func newTracer(trace string) *tracer {
	return &tracer{trace: trace, epoch: time.Now()}
}

// start opens a child of parent; pass the zero span for a root.
func (t *tracer) start(parent span, name string) span {
	if t == nil {
		return span{}
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRecord{Trace: t.trace, Span: id, Parent: parent.id, Name: name, StartNS: now})
	return span{t: t, id: id}
}

// end closes the span, attaching attrs given as key, value pairs.
func (s span) end(attrs ...any) {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.epoch).Nanoseconds()
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	rec := &s.t.spans[s.id-1]
	rec.EndNS = now
	for i := 0; i+1 < len(attrs); i += 2 {
		if rec.Attrs == nil {
			rec.Attrs = map[string]any{}
		}
		rec.Attrs[fmt.Sprint(attrs[i])] = attrs[i+1]
	}
}

// flush writes every span as one JSON line, atomically.
func (t *tracer) flush(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("encoding span %d: %w", s.Span, err)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return fsatomic.WriteFile(path, buf.Bytes(), 0o644)
}

// selfTime is a span name's total duration and the part of it not covered by
// child spans.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	byOrder int
}

// selfTimes folds spans by name: self time is a span's duration minus the
// part of it that its direct children cover. Children may overlap — the two
// web clients' campaigns run side by side under the workload span — so the
// cover is the union of their intervals.
func selfTimes(spans []spanRecord) []selfTime {
	children := make(map[int][]spanRecord, len(spans))
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	covered := func(id int) (ns int64) {
		kids := children[id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var end int64 // where the cover so far ends
		for _, k := range kids {
			if k.EndNS > end {
				ns += k.EndNS - max(k.StartNS, end)
				end = k.EndNS
			}
		}
		return ns
	}
	byName := map[string]*selfTime{}
	for i, s := range spans {
		name, _, _ := strings.Cut(s.Name, ":") // query:q3 folds into query
		st := byName[name]
		if st == nil {
			st = &selfTime{Name: name, byOrder: i}
			byName[name] = st
		}
		dur := s.EndNS - s.StartNS
		st.Count++
		st.TotalS += float64(dur) / 1e9
		st.SelfS += float64(dur-covered(s.Span)) / 1e9
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].byOrder < out[j].byOrder })
	return out
}
