package harness

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// Result is the structured output of one experiment: one or more named
// tables plus free-form notes. Experiments build Results instead of
// rendering text directly, so every figure and table of the paper can be
// exported machine-readable (CSV, JSON) as well as human-readable (Text) —
// the structured-result-reporting discipline IDEBench and GBD argue
// benchmarks owe their users.
type Result struct {
	Tables []ResultTable `json:"tables"`
	Notes  []string      `json:"notes,omitempty"`
}

// ResultTable is one named table of string cells.
type ResultTable struct {
	// Name identifies the table within its experiment (usually the
	// experiment ID; suffixed when an experiment emits several tables).
	Name   string     `json:"name"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// tableResult builds a single-table result.
func tableResult(name string, header []string, rows [][]string) *Result {
	return &Result{Tables: []ResultTable{{Name: name, Header: header, Rows: rows}}}
}

// note appends a formatted note line.
func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Text renders the result the way the paper's tables read: tab-aligned
// columns, one block per table, notes at the end.
func (r *Result) Text() string {
	var sb strings.Builder
	for i, t := range r.Tables {
		if i > 0 {
			sb.WriteString("\n")
		}
		w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, strings.Join(t.Header, "\t"))
		fmt.Fprintln(w, strings.Repeat("-", 4+8*len(t.Header)))
		for _, row := range t.Rows {
			fmt.Fprintln(w, strings.Join(row, "\t"))
		}
		w.Flush()
	}
	for _, n := range r.Notes {
		sb.WriteString(n)
		sb.WriteString("\n")
	}
	return sb.String()
}

// CSV renders every table as an RFC-4180 block headed by a "# name" comment
// line, with blocks separated by blank lines and notes as trailing "# note:"
// comments. Single-table results parse directly after stripping comment
// lines.
func (r *Result) CSV() string {
	var sb strings.Builder
	for i, t := range r.Tables {
		if i > 0 {
			sb.WriteString("\n")
		}
		fmt.Fprintf(&sb, "# %s\n", t.Name)
		w := csv.NewWriter(&sb)
		w.Write(t.Header)
		for _, row := range t.Rows {
			w.Write(row)
		}
		w.Flush()
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "# note: %s\n", n)
	}
	return sb.String()
}

// JSON renders the result as indented JSON.
func (r *Result) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("harness: encoding result: %w", err)
	}
	return append(data, '\n'), nil
}

// FormatDuration renders durations the way the paper's tables do: seconds
// below a minute ("32s", "2.4s"), minutes below an hour ("19.3m"), hours
// beyond ("1.1h").
func FormatDuration(d time.Duration) string {
	switch {
	case d <= 0:
		return "0s"
	case d < time.Millisecond:
		return fmt.Sprintf("%.2gms", float64(d)/float64(time.Millisecond))
	case d < time.Second:
		return fmt.Sprintf("%.3gms", float64(d)/float64(time.Millisecond))
	case d < time.Minute:
		return fmt.Sprintf("%.3gs", d.Seconds())
	case d < time.Hour:
		return fmt.Sprintf("%.3gm", d.Minutes())
	default:
		return fmt.Sprintf("%.3gh", d.Hours())
	}
}

// cell renders one result cell: a duration, the paper's dash for timeouts,
// or a load failure.
func (r SessionRecord) cell() string {
	switch {
	case r.Error != "":
		return "load failed"
	case r.Err() != nil:
		return "error"
	case r.TimedOut:
		return "-"
	default:
		return FormatDuration(r.Total())
	}
}

// boxStats summarises a sample: min, first quartile, median, third
// quartile, max (the Fig. 6 box plot numbers).
type boxStats struct {
	Min, Q1, Median, Q3, Max time.Duration
}

func box(samples []time.Duration) boxStats {
	if len(samples) == 0 {
		return boxStats{}
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	q := func(f float64) time.Duration {
		idx := f * float64(len(s)-1)
		lo := int(idx)
		if lo >= len(s)-1 {
			return s[len(s)-1]
		}
		frac := idx - float64(lo)
		return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
	}
	return boxStats{Min: s[0], Q1: q(0.25), Median: q(0.5), Q3: q(0.75), Max: s[len(s)-1]}
}

func percent(part, whole int64) string {
	if whole == 0 {
		return "0.0%"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(whole))
}
