package main

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// Verdicts of -compare, one per workload × end-to-end metric.
const (
	verdictBetter     = "better"
	verdictWithin     = "within-bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareRow is one line of the -compare table.
type compareRow struct {
	Metric, Unit      string
	Base, New         float64 // medians over each file's untraced runs
	BaseRuns, NewRuns int
	Ratio             float64 // New / Base
	Spread            float64 // the wider of the two files' run-to-run spreads
	Bound             float64
	Verdict           string
}

// iqrShare is the distance between the first and third quartile as a share
// of the median, with the quartiles of Python's statistics.quantiles(n=4).
// Fewer than two values have no spread.
func iqrShare(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(n-1, max(1, i*(n+1)/4))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / median(s)
}

// judge compares two sets of runs of one metric on one workload. Worse means
// the median moved past the bound in the bad direction. When the runs of
// either file spread wider than the bound the move is unresolved, unless
// every new run lies on one side of every base run.
func judge(def metricDef, base, next []float64) compareRow {
	row := compareRow{
		Metric: def.Name, Unit: def.Unit, Bound: def.Bound,
		Base: median(base), New: median(next), BaseRuns: len(base), NewRuns: len(next),
		Spread: max(iqrShare(base), iqrShare(next)),
	}
	row.Ratio = row.New / row.Base
	worsening := (row.New - row.Base) / row.Base
	lo, hi := base, next // hi should hold the larger values if things got worse
	if def.Better == "higher" {
		worsening = -worsening
		lo, hi = next, base
	}
	separated := slices.Max(lo) < slices.Min(hi) || slices.Max(hi) < slices.Min(lo)
	switch {
	case row.Spread > def.Bound && !separated:
		row.Verdict = verdictUnresolved
	case worsening > def.Bound:
		row.Verdict = verdictWorse
	case worsening < 0 && -worsening > row.Spread:
		row.Verdict = verdictBetter
	default:
		row.Verdict = verdictWithin
	}
	return row
}

// fileSummary is one result file folded by workload.
type fileSummary struct {
	values    map[string]map[string][]float64 // workload -> end-to-end metric -> one value per untraced run
	exact     map[string]map[string]float64   // workload -> exact count (traced run)
	digest    map[string]string
	attempted map[string]int
	failed    map[string]int
}

func summarise(f resultFile) fileSummary {
	s := fileSummary{
		values: map[string]map[string][]float64{}, exact: map[string]map[string]float64{},
		digest: map[string]string{}, attempted: map[string]int{}, failed: map[string]int{},
	}
	for _, r := range f.Runs {
		w := r.Workload
		if s.values[w] == nil {
			s.values[w], s.exact[w] = map[string][]float64{}, map[string]float64{}
		}
		s.attempted[w] += r.Attempted
		s.failed[w] += r.Failed
		s.digest[w] = r.SessionsDigest
		for name, m := range r.Metrics {
			def, ok := metricByName(name)
			switch {
			case !ok:
			case !def.Layer:
				s.values[w][name] = append(s.values[w][name], m.Value)
			case def.Exact:
				s.exact[w][name] = m.Value
			}
		}
	}
	return s
}

// compareFiles prints one row per workload × end-to-end metric and reports
// whether anything got worse: a `worse` verdict or a higher failed share.
func compareFiles(w io.Writer, basePath, newPath string) (worse bool, err error) {
	baseFile, err := readResultFile(basePath)
	if err != nil {
		return false, err
	}
	newFile, err := readResultFile(newPath)
	if err != nil {
		return false, err
	}
	base, next := summarise(baseFile), summarise(newFile)
	fmt.Fprintf(w, "%-19s %-22s %12s %12s %-6s %8s %7s %6s  %s\n",
		"workload", "metric", "base", "new", "unit", "new/base", "spread", "bound", "verdict")
	for _, def := range workloads {
		for _, m := range metrics {
			b, n := base.values[def.Name][m.Name], next.values[def.Name][m.Name]
			if m.Layer || len(b) == 0 || len(n) == 0 {
				continue
			}
			row := judge(m, b, n)
			fmt.Fprintf(w, "%-19s %-22s %12.5g %12.5g %-6s %8.3f %6.1f%% %5.0f%%  %s (runs %d/%d)\n",
				def.Name, row.Metric, row.Base, row.New, row.Unit, row.Ratio,
				100*row.Spread, 100*row.Bound, row.Verdict, row.BaseRuns, row.NewRuns)
			worse = worse || row.Verdict == verdictWorse
		}
		bs := ratio(float64(base.failed[def.Name]), float64(base.attempted[def.Name]))
		ns := ratio(float64(next.failed[def.Name]), float64(next.attempted[def.Name]))
		status := "ok"
		if ns > bs {
			status, worse = verdictWorse, true
		}
		fmt.Fprintf(w, "%-19s %-22s %12.5g %12.5g %-6s %43s\n", def.Name, "failed_share", bs, ns, "share", status)

		var differ []string
		for name, v := range base.exact[def.Name] {
			if nv, ok := next.exact[def.Name][name]; ok && nv != v {
				differ = append(differ, name)
			}
		}
		sort.Strings(differ)
		counts := "identical"
		if len(differ) > 0 {
			counts = "differ: " + strings.Join(differ, ", ")
		}
		digest := "identical"
		if base.digest[def.Name] != next.digest[def.Name] {
			digest = base.digest[def.Name] + " -> " + next.digest[def.Name]
		}
		fmt.Fprintf(w, "%-19s exact counts %s; sessions_digest %s\n", def.Name, counts, digest)
	}
	return worse, nil
}
