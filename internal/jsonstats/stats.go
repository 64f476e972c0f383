// Package jsonstats defines the statistical dataset summary produced by the
// BETZE analyzer (§IV-A of the paper, Listing 2) and consumed by the query
// generator.
//
// For every distinct attribute path of a dataset, the summary records how
// many documents contain the path and, per JSON type, the statistics the
// predicate factories need: min/max for integer and floating-point values,
// the number of true values for booleans, child-count ranges for objects and
// arrays, and counted string prefixes (plus a bounded sample of exact string
// values, an extension that makes string-equality predicates estimable).
//
// AddDocument, the analyzer's per-document cost, builds no path strings: it
// descends a trie keyed by member name whose nodes cache the path's
// *PathStats, rendering a path once, when its node is created. Two rules
// keep that equivalent to keying every value by its rendered path. One slot
// per rendered path: distinct member chains can render the same path (a
// member "a/b" and the chain a→b), so a new node takes its statistics from
// Paths, never a PathStats of its own. And whatever outlives its document
// clones the string it keeps: parsed strings point into slab chunks shared
// with neighbouring documents (see jsonval.Parser), so the Prefixes and
// Values tables and the trie hold copies, never a Str or a member Key; a
// table clones a key once, when it admits it.
package jsonstats

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/joda-explore/betze/internal/jsonval"
)

// Default bounds for the string statistics. They cap the size of the
// analysis file on datasets with high-cardinality string attributes.
const (
	DefaultPrefixLen   = 4
	DefaultMaxPrefixes = 64
	DefaultMaxValues   = 32
)

// Config bounds what the string statistics track and whether numeric
// histograms are collected.
type Config struct {
	// PrefixLen is the length (in bytes) of tracked string prefixes.
	// Strings shorter than PrefixLen contribute themselves.
	PrefixLen int
	// MaxPrefixes caps the number of distinct prefixes kept per path.
	MaxPrefixes int
	// MaxValues caps the number of distinct exact string values sampled
	// per path.
	MaxValues int
	// HistogramBuckets is the bucket count of the per-path numeric
	// histograms (the paper's future-work extension for skew-aware
	// selectivity prediction). 0 means DefaultHistogramBuckets; negative
	// disables histograms.
	HistogramBuckets int
}

// DefaultConfig returns the bounds used by the paper-scale analyzer runs.
func DefaultConfig() Config {
	return Config{
		PrefixLen:   DefaultPrefixLen,
		MaxPrefixes: DefaultMaxPrefixes,
		MaxValues:   DefaultMaxValues,
	}
}

func (c Config) withDefaults() Config {
	if c.PrefixLen <= 0 {
		c.PrefixLen = DefaultPrefixLen
	}
	if c.MaxPrefixes <= 0 {
		c.MaxPrefixes = DefaultMaxPrefixes
	}
	if c.MaxValues <= 0 {
		c.MaxValues = DefaultMaxValues
	}
	if c.HistogramBuckets == 0 {
		c.HistogramBuckets = DefaultHistogramBuckets
	}
	return c
}

// histogramsEnabled reports whether numeric histograms are collected.
func (c Config) histogramsEnabled() bool { return c.HistogramBuckets > 0 }

// Dataset is the statistical summary of one dataset. It is the unit the
// generator works on: initial datasets get a summary from the analyzer, and
// derived datasets get one by scaling their parent's summary (§IV-D).
//
// A complete summary with its own Paths may be shared by concurrent generator
// sessions: Attributes and Lookup write nothing after the first call. A view
// returned by Scale belongs to the session that derived it.
type Dataset struct {
	// Name identifies the dataset (e.g. "Twitter").
	Name string
	// DocCount is the number of documents summarised.
	DocCount int64
	// Paths maps every attribute path seen in the dataset to its
	// statistics. The root path is present whenever DocCount > 0 and
	// describes the documents themselves. Paths is nil on a view returned
	// by Scale: read a view through Lookup, or Materialize it. Entries must
	// not be replaced or deleted between AddDocument calls: the trie caches
	// them.
	Paths map[jsonval.Path]*PathStats

	cfg Config

	trie *pathNode // root of the trie AddDocument descends; nil until the first document

	// attrPaths and attrCum (see Attributes) are built once per analysed
	// summary, under attrsOnce, and handed on to every view derived from it.
	attrsOnce sync.Once
	attrPaths []jsonval.Path
	attrCum   []float64

	// A view's statistics are its parent's scaled by sel, computed per
	// path on first Lookup and kept in scaled.
	parent *Dataset
	sel    float64
	scaled map[jsonval.Path]*PathStats
}

// NewDataset returns an empty summary with the given string-stat bounds.
func NewDataset(name string, cfg Config) *Dataset {
	return &Dataset{
		Name:  name,
		Paths: make(map[jsonval.Path]*PathStats),
		cfg:   cfg.withDefaults(),
	}
}

// Config returns the string-statistic bounds the summary was built with.
func (d *Dataset) Config() Config { return d.cfg }

// PathStats aggregates the statistics of one attribute path. A pointer field
// is nil until a value of that type has been observed at the path.
type PathStats struct {
	// Count is the number of documents that contain the path.
	Count int64
	// NullCount is the number of documents with a JSON null at the path.
	NullCount int64

	Bool  *BoolStats
	Int   *IntStats
	Float *FloatStats
	Str   *StringStats
	Obj   *ObjectStats
	Arr   *ArrayStats

	// NumHist is the combined histogram over the path's integer and
	// floating-point values; nil when histograms are disabled or no
	// numbers were observed.
	NumHist *Histogram
}

// IntStats summarises integer occurrences at a path.
type IntStats struct {
	Count    int64
	Min, Max int64
}

// FloatStats summarises floating-point occurrences at a path.
type FloatStats struct {
	Count    int64
	Min, Max float64
}

// BoolStats summarises boolean occurrences at a path. The number of false
// values is Count - TrueCount.
type BoolStats struct {
	Count     int64
	TrueCount int64
}

// StringStats summarises string occurrences at a path.
type StringStats struct {
	Count int64
	// Prefixes counts occurrences per fixed-length prefix. If
	// PrefixOverflow is set, prefixes beyond the cap were dropped and the
	// table undercounts the tail.
	Prefixes       Counted
	PrefixOverflow bool
	// Values samples exact values with their occurrence counts; bounded,
	// with ValueOverflow marking that the sample is partial.
	Values        Counted
	ValueOverflow bool
	// MinLen/MaxLen bound the observed string lengths in bytes.
	MinLen, MaxLen int
}

// ObjectStats summarises object occurrences at a path.
type ObjectStats struct {
	Count                    int64
	MinChildren, MaxChildren int
}

// ArrayStats summarises array occurrences at a path.
type ArrayStats struct {
	Count            int64
	MinSize, MaxSize int
}

// stats returns the PathStats for p, creating it if needed.
func (d *Dataset) stats(p jsonval.Path) *PathStats {
	ps := d.Paths[p]
	if ps == nil {
		ps = &PathStats{}
		d.Paths[p] = ps
	}
	return ps
}

// pathNode is one member chain: the path it renders to, the statistics all
// chains rendering that path share, and the chains one member longer.
type pathNode struct {
	path  jsonval.Path
	stats *PathStats
	kids  map[string]*pathNode
}

// child returns the node of n's member name, creating it on first sight.
func (d *Dataset) child(n *pathNode, name string) *pathNode {
	if kid := n.kids[name]; kid != nil {
		return kid
	}
	// Child concatenates, so path is a fresh string that neither pins nor
	// aliases the document, whose memory a recycling parser reuses for the
	// next one; its tail serves as the map key.
	path := n.path.Child(name)
	kid := &pathNode{path: path, stats: d.stats(path)}
	if n.kids == nil {
		n.kids = make(map[string]*pathNode)
	}
	n.kids[string(path[len(path)-len(name):])] = kid
	return kid
}

// AddDocument folds one document into the summary.
func (d *Dataset) AddDocument(doc jsonval.Value) {
	d.attrsOnce = sync.Once{} // the paths change: index them again on next use
	d.DocCount++
	if d.trie == nil {
		d.trie = &pathNode{path: jsonval.RootPath, stats: d.stats(jsonval.RootPath)}
	}
	d.observe(d.trie, doc)
}

func (d *Dataset) observe(node *pathNode, v jsonval.Value) {
	ps := node.stats
	ps.Count++
	switch v.Kind() {
	case jsonval.Null:
		ps.NullCount++
	case jsonval.Bool:
		if ps.Bool == nil {
			ps.Bool = &BoolStats{}
		}
		ps.Bool.Count++
		if v.Bool() {
			ps.Bool.TrueCount++
		}
	case jsonval.Int:
		n := v.Int()
		if ps.Int == nil {
			ps.Int = &IntStats{Min: n, Max: n}
		}
		ps.Int.Count++
		ps.Int.Min = min(ps.Int.Min, n)
		ps.Int.Max = max(ps.Int.Max, n)
		d.observeNumber(ps, float64(n))
	case jsonval.Float:
		f := v.Float()
		if ps.Float == nil {
			ps.Float = &FloatStats{Min: f, Max: f}
		}
		ps.Float.Count++
		ps.Float.Min = math.Min(ps.Float.Min, f)
		ps.Float.Max = math.Max(ps.Float.Max, f)
		d.observeNumber(ps, f)
	case jsonval.String:
		s := v.Str()
		if ps.Str == nil {
			ps.Str = &StringStats{MinLen: len(s), MaxLen: len(s)}
		}
		st := ps.Str
		st.Count++
		st.MinLen = min(st.MinLen, len(s))
		st.MaxLen = max(st.MaxLen, len(s))
		if !st.Prefixes.add(prefixOf(s, d.cfg.PrefixLen), 1, d.cfg.MaxPrefixes) {
			st.PrefixOverflow = true
		}
		if !st.Values.add(s, 1, d.cfg.MaxValues) {
			st.ValueOverflow = true
		}
	case jsonval.Object:
		n := v.Len()
		if ps.Obj == nil {
			ps.Obj = &ObjectStats{MinChildren: n, MaxChildren: n}
		}
		ps.Obj.Count++
		ps.Obj.MinChildren = min(ps.Obj.MinChildren, n)
		ps.Obj.MaxChildren = max(ps.Obj.MaxChildren, n)
		members := v.Members()
		for i := range members {
			d.observe(d.child(node, members[i].Key), members[i].Value)
		}
	case jsonval.Array:
		n := v.Len()
		if ps.Arr == nil {
			ps.Arr = &ArrayStats{MinSize: n, MaxSize: n}
		}
		ps.Arr.Count++
		ps.Arr.MinSize = min(ps.Arr.MinSize, n)
		ps.Arr.MaxSize = max(ps.Arr.MaxSize, n)
		// Arrays are leaves: the analyzer describes them by size only.
	}
}

func (d *Dataset) observeNumber(ps *PathStats, f float64) {
	if !d.cfg.histogramsEnabled() {
		return
	}
	if ps.NumHist == nil {
		ps.NumHist = NewHistogram(d.cfg.HistogramBuckets)
	}
	ps.NumHist.Observe(f)
}

func prefixOf(s string, n int) string {
	if len(s) <= n {
		return s
	}
	// Avoid splitting a multi-byte rune.
	for n > 0 && s[n]&0xC0 == 0x80 {
		n--
	}
	return s[:n]
}

// Scale derives the summary of a sub-dataset selected with the given
// selectivity, without re-analysing documents (§IV-D: when no verification
// backend is configured, "the statistics of each generated sub-dataset are
// then calculated by scaling the statistics of the base dataset"). All
// counts shrink proportionally; value ranges are kept because nothing better
// is known.
//
// The result is a view: it shares d's attribute index and scales one path's
// statistics when Lookup first asks for them, so deriving a dataset costs
// the paths the generator goes on to touch, not the paths d has. d must not
// change afterwards.
func (d *Dataset) Scale(name string, selectivity float64) *Dataset {
	if selectivity < 0 {
		selectivity = 0
	}
	if selectivity > 1 {
		selectivity = 1
	}
	out := &Dataset{
		Name:     name,
		DocCount: scaleCount(d.DocCount, selectivity),
		cfg:      d.cfg,
		parent:   d,
		sel:      selectivity,
		scaled:   make(map[jsonval.Path]*PathStats),
	}
	// scaleCount keeps a non-zero count alive under any positive factor,
	// so the view has exactly its parent's attributes, or none.
	if selectivity > 0 {
		out.attrPaths, out.attrCum = d.Attributes()
	}
	return out
}

// Lookup returns the statistics of p, or nil when the dataset has no such
// path. The result is shared and must not be modified.
func (d *Dataset) Lookup(p jsonval.Path) *PathStats {
	if d.parent == nil {
		return d.Paths[p]
	}
	ps, ok := d.scaled[p]
	if !ok {
		ps = scalePathStats(d.parent.Lookup(p), d.sel)
		d.scaled[p] = ps
	}
	return ps
}

// Materialize returns a summary that holds all of d's statistics in its own
// Paths map, for callers that range over or edit the paths of a view. The
// PathStats values stay shared with d.
func (d *Dataset) Materialize() *Dataset {
	out := NewDataset(d.Name, d.cfg)
	out.DocCount = d.DocCount
	paths, _ := d.Attributes()
	for _, p := range append([]jsonval.Path{jsonval.RootPath}, paths...) {
		if ps := d.Lookup(p); ps != nil {
			out.Paths[p] = ps
		}
	}
	return out
}

// scalePathStats scales one path's statistics; nil when ps is nil or no
// document with the path is left.
func scalePathStats(ps *PathStats, selectivity float64) *PathStats {
	if ps == nil {
		return nil
	}
	nps := &PathStats{
		Count:     scaleCount(ps.Count, selectivity),
		NullCount: scaleCount(ps.NullCount, selectivity),
	}
	if nps.Count == 0 {
		return nil
	}
	if ps.Bool != nil {
		nps.Bool = &BoolStats{
			Count:     scaleCount(ps.Bool.Count, selectivity),
			TrueCount: scaleCount(ps.Bool.TrueCount, selectivity),
		}
	}
	if ps.Int != nil {
		nps.Int = &IntStats{Count: scaleCount(ps.Int.Count, selectivity), Min: ps.Int.Min, Max: ps.Int.Max}
	}
	if ps.Float != nil {
		nps.Float = &FloatStats{Count: scaleCount(ps.Float.Count, selectivity), Min: ps.Float.Min, Max: ps.Float.Max}
	}
	if ps.Str != nil {
		nps.Str = &StringStats{
			Count:          scaleCount(ps.Str.Count, selectivity),
			Prefixes:       ps.Str.Prefixes.scale(selectivity),
			Values:         ps.Str.Values.scale(selectivity),
			PrefixOverflow: ps.Str.PrefixOverflow,
			ValueOverflow:  ps.Str.ValueOverflow,
			MinLen:         ps.Str.MinLen,
			MaxLen:         ps.Str.MaxLen,
		}
	}
	if ps.Obj != nil {
		nps.Obj = &ObjectStats{Count: scaleCount(ps.Obj.Count, selectivity), MinChildren: ps.Obj.MinChildren, MaxChildren: ps.Obj.MaxChildren}
	}
	if ps.Arr != nil {
		nps.Arr = &ArrayStats{Count: scaleCount(ps.Arr.Count, selectivity), MinSize: ps.Arr.MinSize, MaxSize: ps.Arr.MaxSize}
	}
	if ps.NumHist != nil {
		nps.NumHist = ps.NumHist.Scale(selectivity)
	}
	return nps
}

func scaleCount(c int64, f float64) int64 {
	scaled := int64(math.Round(float64(c) * f))
	if scaled == 0 && c > 0 && f > 0 {
		scaled = 1 // keep non-empty statistics alive
	}
	return scaled
}

// Attributes returns the paths a predicate or aggregation can be generated
// on: every non-root path with Count > 0, in lexicographic order so that a
// seeded generator draws reproducibly. invDepthCum[i] is the sum of 1/depth
// over the first i+1 of them, the table behind depth-weighted draws (§IV-C).
// Both slices are shared down a chain of views and must not be modified.
func (d *Dataset) Attributes() (paths []jsonval.Path, invDepthCum []float64) {
	if d.parent == nil {
		d.attrsOnce.Do(d.buildIndex)
	}
	return d.attrPaths, d.attrCum
}

// buildIndex also fixes the bucket bounds of histograms that are still
// buffering, which FractionLE and Quantile would otherwise do on first
// read: after it, readers of a shared summary write nothing.
func (d *Dataset) buildIndex() {
	paths := make([]jsonval.Path, 0, len(d.Paths))
	for p, ps := range d.Paths {
		if ps.NumHist != nil {
			ps.NumHist.finalize()
		}
		if p != jsonval.RootPath && ps.Count > 0 {
			paths = append(paths, p)
		}
	}
	sort.Slice(paths, func(i, j int) bool { return paths[i] < paths[j] })
	cum := make([]float64, len(paths))
	var total float64
	for i, p := range paths {
		total += 1 / float64(p.Depth())
		cum[i] = total
	}
	d.attrPaths, d.attrCum = paths, cum
}

// Validate checks internal consistency of the summary: per-type counts must
// sum to the path count, ranges must be ordered, bool true-counts bounded.
func (d *Dataset) Validate() error {
	for p, ps := range d.Paths {
		var typed int64 = ps.NullCount
		if ps.Bool != nil {
			typed += ps.Bool.Count
			if ps.Bool.TrueCount < 0 || ps.Bool.TrueCount > ps.Bool.Count {
				return fmt.Errorf("jsonstats: path %s: true count %d outside [0,%d]", p, ps.Bool.TrueCount, ps.Bool.Count)
			}
		}
		if ps.Int != nil {
			typed += ps.Int.Count
			if ps.Int.Min > ps.Int.Max {
				return fmt.Errorf("jsonstats: path %s: int min %d > max %d", p, ps.Int.Min, ps.Int.Max)
			}
		}
		if ps.Float != nil {
			typed += ps.Float.Count
			if ps.Float.Min > ps.Float.Max {
				return fmt.Errorf("jsonstats: path %s: float min %g > max %g", p, ps.Float.Min, ps.Float.Max)
			}
		}
		if ps.Str != nil {
			typed += ps.Str.Count
			if ps.Str.MinLen > ps.Str.MaxLen {
				return fmt.Errorf("jsonstats: path %s: string minlen %d > maxlen %d", p, ps.Str.MinLen, ps.Str.MaxLen)
			}
		}
		if ps.Obj != nil {
			typed += ps.Obj.Count
			if ps.Obj.MinChildren > ps.Obj.MaxChildren {
				return fmt.Errorf("jsonstats: path %s: object children %d > %d", p, ps.Obj.MinChildren, ps.Obj.MaxChildren)
			}
		}
		if ps.Arr != nil {
			typed += ps.Arr.Count
			if ps.Arr.MinSize > ps.Arr.MaxSize {
				return fmt.Errorf("jsonstats: path %s: array size %d > %d", p, ps.Arr.MinSize, ps.Arr.MaxSize)
			}
		}
		if typed != ps.Count {
			return fmt.Errorf("jsonstats: path %s: typed counts sum to %d, path count is %d", p, typed, ps.Count)
		}
		if ps.Count > d.DocCount {
			return fmt.Errorf("jsonstats: path %s: count %d exceeds document count %d", p, ps.Count, d.DocCount)
		}
	}
	return nil
}
