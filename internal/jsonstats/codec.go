package jsonstats

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"github.com/joda-explore/betze/internal/jsonval"
)

// The on-disk analysis-file format (cf. Listing 2 of the paper). It can be
// "stored and shared for future generator runs without the actual dataset".

type datasetJSON struct {
	Name     string                   `json:"name"`
	DocCount int64                    `json:"doc_count"`
	Config   configJSON               `json:"config"`
	Paths    map[string]pathStatsJSON `json:"paths"`
}

type configJSON struct {
	PrefixLen        int `json:"prefix_len"`
	MaxPrefixes      int `json:"max_prefixes"`
	MaxValues        int `json:"max_values"`
	HistogramBuckets int `json:"histogram_buckets,omitempty"`
}

type histogramJSON struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Total  int64     `json:"total"`
}

// validate checks Histogram's invariant: at least one bucket, one more bound
// than buckets, non-decreasing bounds, and non-negative counts summing to the
// total.
func (h *histogramJSON) validate() error {
	if len(h.Counts) == 0 || len(h.Bounds) != len(h.Counts)+1 {
		return fmt.Errorf("histogram has %d bounds for %d buckets", len(h.Bounds), len(h.Counts))
	}
	for i := 1; i < len(h.Bounds); i++ {
		if h.Bounds[i] < h.Bounds[i-1] {
			return fmt.Errorf("histogram bounds decrease at %d", i)
		}
	}
	var sum int64
	for _, c := range h.Counts {
		if c < 0 || c > math.MaxInt64-sum {
			return fmt.Errorf("histogram count %d is negative or overflows the total", c)
		}
		sum += c
	}
	if sum != h.Total {
		return fmt.Errorf("histogram counts sum to %d, total is %d", sum, h.Total)
	}
	return nil
}

type pathStatsJSON struct {
	Count     int64            `json:"count"`
	NullCount int64            `json:"null_count,omitempty"`
	Bool      *BoolStats       `json:"bool,omitempty"`
	Int       *IntStats        `json:"int,omitempty"`
	Float     *FloatStats      `json:"float,omitempty"`
	Str       *stringStatsJSON `json:"string,omitempty"`
	Obj       *ObjectStats     `json:"object,omitempty"`
	Arr       *ArrayStats      `json:"array,omitempty"`
	NumHist   *histogramJSON   `json:"numeric_histogram,omitempty"`
}

type stringStatsJSON struct {
	Count          int64            `json:"count"`
	Prefixes       map[string]int64 `json:"prefixes,omitempty"`
	PrefixOverflow bool             `json:"prefix_overflow,omitempty"`
	Values         map[string]int64 `json:"values,omitempty"`
	ValueOverflow  bool             `json:"value_overflow,omitempty"`
	MinLen         int              `json:"min_len"`
	MaxLen         int              `json:"max_len"`
}

// MarshalJSON encodes the summary in the analysis-file format.
func (d *Dataset) MarshalJSON() ([]byte, error) {
	if d.parent != nil {
		d = d.Materialize()
	}
	out := datasetJSON{
		Name:     d.Name,
		DocCount: d.DocCount,
		Config: configJSON{
			PrefixLen:        d.cfg.PrefixLen,
			MaxPrefixes:      d.cfg.MaxPrefixes,
			MaxValues:        d.cfg.MaxValues,
			HistogramBuckets: d.cfg.HistogramBuckets,
		},
		Paths: make(map[string]pathStatsJSON, len(d.Paths)),
	}
	for p, ps := range d.Paths {
		e := pathStatsJSON{
			Count:     ps.Count,
			NullCount: ps.NullCount,
			Bool:      ps.Bool,
			Int:       ps.Int,
			Float:     ps.Float,
			Obj:       ps.Obj,
			Arr:       ps.Arr,
		}
		if ps.Str != nil {
			e.Str = &stringStatsJSON{
				Count:          ps.Str.Count,
				Prefixes:       countedJSON(ps.Str.Prefixes),
				PrefixOverflow: ps.Str.PrefixOverflow,
				Values:         countedJSON(ps.Str.Values),
				ValueOverflow:  ps.Str.ValueOverflow,
				MinLen:         ps.Str.MinLen,
				MaxLen:         ps.Str.MaxLen,
			}
		}
		if ps.NumHist != nil {
			bounds, counts, total := ps.NumHist.Snapshot()
			e.NumHist = &histogramJSON{Bounds: bounds, Counts: counts, Total: total}
		}
		out.Paths[p.String()] = e
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes an analysis file produced by MarshalJSON.
func (d *Dataset) UnmarshalJSON(data []byte) error {
	var in datasetJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("jsonstats: decoding analysis file: %w", err)
	}
	cfg := Config{
		PrefixLen:        in.Config.PrefixLen,
		MaxPrefixes:      in.Config.MaxPrefixes,
		MaxValues:        in.Config.MaxValues,
		HistogramBuckets: in.Config.HistogramBuckets,
	}
	if in.DocCount < 0 {
		return fmt.Errorf("jsonstats: decoding analysis file: negative doc_count %d", in.DocCount)
	}
	*d = *NewDataset(in.Name, cfg)
	d.DocCount = in.DocCount
	for ps, e := range in.Paths {
		if e.Count < 0 || e.NullCount < 0 {
			return fmt.Errorf("jsonstats: decoding analysis file: path %s: negative count", ps)
		}
		stats := &PathStats{
			Count:     e.Count,
			NullCount: e.NullCount,
			Bool:      e.Bool,
			Int:       e.Int,
			Float:     e.Float,
			Obj:       e.Obj,
			Arr:       e.Arr,
		}
		if e.Str != nil {
			stats.Str = &StringStats{
				Count:          e.Str.Count,
				Prefixes:       CountedOf(e.Str.Prefixes),
				PrefixOverflow: e.Str.PrefixOverflow,
				Values:         CountedOf(e.Str.Values),
				ValueOverflow:  e.Str.ValueOverflow,
				MinLen:         e.Str.MinLen,
				MaxLen:         e.Str.MaxLen,
			}
			if err := positiveCounts("prefix", stats.Str.Prefixes); err != nil {
				return fmt.Errorf("jsonstats: decoding analysis file: path %s: %w", ps, err)
			}
			if err := positiveCounts("value", stats.Str.Values); err != nil {
				return fmt.Errorf("jsonstats: decoding analysis file: path %s: %w", ps, err)
			}
		}
		if e.NumHist != nil {
			if err := e.NumHist.validate(); err != nil {
				return fmt.Errorf("jsonstats: decoding analysis file: path %s: %w", ps, err)
			}
			stats.NumHist = FromSnapshot(e.NumHist.Bounds, e.NumHist.Counts, e.NumHist.Total)
		}
		d.Paths[jsonval.ParsePath(ps)] = stats
	}
	return nil
}

// positiveCounts checks Counted's invariant that every count is at least 1:
// the analyser counts a string before it keeps it, and a view scales a
// count of 1 or more to 1 or more, so a summary and its views agree on the
// keys a table holds.
func positiveCounts(kind string, c Counted) error {
	for i := range c.Len() {
		if k, n := c.At(i); n < 1 {
			return fmt.Errorf("string %s %q has count %d, want at least 1", kind, k, n)
		}
	}
	return nil
}

// countedJSON returns c as the {key: count} object of the analysis file;
// encoding/json writes its keys sorted, the table's own order.
func countedJSON(c Counted) map[string]int64 {
	m := make(map[string]int64, c.Len())
	for i := range c.Len() {
		k, n := c.At(i)
		m[k] = n
	}
	return m
}

// WriteTo streams the analysis file to w with stable indentation, so files
// diff cleanly across generator versions.
func (d *Dataset) WriteTo(w io.Writer) (int64, error) {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return 0, err
	}
	data = append(data, '\n')
	n, err := w.Write(data)
	return int64(n), err
}

// ReadFrom loads an analysis file.
func ReadFrom(r io.Reader) (*Dataset, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("jsonstats: reading analysis file: %w", err)
	}
	var d Dataset
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, err
	}
	return &d, nil
}
