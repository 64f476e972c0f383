// Command betze is the BETZE command-line interface: it generates synthetic
// datasets, analyzes JSON datasets into statistics files, generates
// benchmark sessions from them, and executes sessions against the built-in
// engines — the Go equivalent of the paper's generate_queries.sh /
// benchmark_queries.sh two-step flow (Listing 4).
//
// Usage:
//
//	betze dataset  -kind twitter|nobench|reddit -n 10000 -seed 1 -out data.json
//	betze analyze  -in data.json -name Twitter -out analysis.json
//	betze generate -analysis analysis.json -out sessiondir [-seed 123]
//	               [-preset expert] [-aggregate] [-group-by] [-materialize]
//	               [-weighted-paths] [-verify data.json] [-langs joda,jq,...]
//	betze run      -session sessiondir/session.json -data data.json
//	               [-systems joda,mongodb,postgres,jq] [-timeout 10m]
//	               [-faults 0.3] [-fault-seed 7] [-retries 3]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/joda-explore/betze/internal/analyze"
	"github.com/joda-explore/betze/internal/core"
	"github.com/joda-explore/betze/internal/datasets"
	"github.com/joda-explore/betze/internal/engine/jodasim"
	"github.com/joda-explore/betze/internal/fsatomic"
	"github.com/joda-explore/betze/internal/harness"
	"github.com/joda-explore/betze/internal/jsonstats"
	"github.com/joda-explore/betze/internal/langs"
	_ "github.com/joda-explore/betze/internal/langs/all"
	"github.com/joda-explore/betze/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "betze:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return usageError()
	}
	switch args[0] {
	case "dataset":
		return cmdDataset(args[1:], out)
	case "analyze":
		return cmdAnalyze(args[1:], out)
	case "generate":
		return cmdGenerate(args[1:], out)
	case "run":
		return cmdRun(args[1:], out)
	case "help", "-h", "--help":
		return usageError()
	default:
		return fmt.Errorf("unknown command %q\n%v", args[0], usageError())
	}
}

func usageError() error {
	return fmt.Errorf("usage: betze <dataset|analyze|generate|run> [flags]; see -h of each command")
}

func cmdDataset(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dataset", flag.ContinueOnError)
	kind := fs.String("kind", "twitter", "dataset family: twitter, nobench or reddit")
	n := fs.Int("n", 10000, "number of documents")
	seed := fs.Int64("seed", 1, "generator seed")
	outPath := fs.String("out", "", "output file (newline-delimited JSON)")
	nullFrac := fs.Float64("null-fraction", 0, "reddit only: fraction of bodies with U+0000 (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outPath == "" {
		return fmt.Errorf("dataset: -out is required")
	}
	if *n < 1 {
		return fmt.Errorf("dataset: -n: document count %d below 1", *n)
	}
	src, err := datasets.ByName(*kind, datasets.RedditOptions{NullByteFraction: *nullFrac})
	if err != nil {
		return fmt.Errorf("dataset: unknown kind %q", *kind)
	}
	if err := src.WriteFile(*outPath, *n, *seed); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d %s documents to %s\n", *n, src.Name, *outPath)
	return nil
}

func cmdAnalyze(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	in := fs.String("in", "", "input dataset file (newline-delimited JSON)")
	name := fs.String("name", "", "dataset name (default: file name)")
	outPath := fs.String("out", "", "output analysis file")
	workers := fs.Int("workers", 0, "goroutines that parse documents (0 = all CPUs); the analysis file is the same for any value")
	sampleEvery := fs.Int("sample-every", 0, "analyze every k-th document only (faster, slightly less accurate)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *outPath == "" {
		return fmt.Errorf("analyze: -in and -out are required")
	}
	start := time.Now()
	stats, err := analyze.File(*name, *in, analyze.Options{Workers: *workers, SampleEvery: *sampleEvery})
	if err != nil {
		return err
	}
	f, err := fsatomic.Create(*outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := stats.WriteTo(f); err != nil {
		return err
	}
	if err := f.Commit(); err != nil {
		return err
	}
	fmt.Fprintf(out, "analyzed %d documents (%d paths) in %v -> %s\n",
		stats.DocCount, len(stats.Paths), time.Since(start).Round(time.Millisecond), *outPath)
	return nil
}

func cmdGenerate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	analysisPath := fs.String("analysis", "", "comma-separated analysis file(s) from 'betze analyze'")
	outDir := fs.String("out", "", "directory for the generated session")
	seed := fs.Int64("seed", 1, "generator seed for repeatable runs")
	preset := fs.String("preset", "intermediate", "user preset: novice, intermediate or expert")
	alpha := fs.Float64("alpha", -1, "override go-back probability")
	beta := fs.Float64("beta", -1, "override random-jump probability")
	queries := fs.Int("queries", 0, "override queries per session")
	minSel := fs.Float64("min-selectivity", 0, "minimum query selectivity")
	maxSel := fs.Float64("max-selectivity", 0, "maximum query selectivity")
	aggregate := fs.Bool("aggregate", false, "generate aggregation queries")
	aggFraction := fs.Float64("agg-fraction", 0, "fraction of aggregated queries (0 = all)")
	groupBy := fs.Bool("group-by", false, "group aggregations by a random attribute")
	materialize := fs.Bool("materialize", false, "store every query result as an intermediate dataset")
	weighted := fs.Bool("weighted-paths", false, "prefer attributes close to the document root")
	include := fs.String("include-predicates", "", "comma-separated predicate allow-list")
	exclude := fs.String("exclude-predicates", "", "comma-separated predicate deny-list")
	verify := fs.String("verify", "", "dataset file to verify selectivities against (recommended)")
	languages := fs.String("langs", "", "comma-separated languages to translate to (default: all)")
	tracePath := fs.String("trace", "", "write translation trace events (JSON lines) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *analysisPath == "" || *outDir == "" {
		return fmt.Errorf("generate: -analysis and -out are required")
	}
	var statsList []*jsonstats.Dataset
	for _, path := range strings.Split(*analysisPath, ",") {
		af, err := os.Open(strings.TrimSpace(path))
		if err != nil {
			return err
		}
		stats, err := jsonstats.ReadFrom(af)
		af.Close()
		if err != nil {
			return err
		}
		statsList = append(statsList, stats)
	}
	p, err := core.PresetByName(*preset)
	if err != nil {
		return err
	}
	opts := core.Options{
		Preset:         p,
		Seed:           *seed,
		Queries:        *queries,
		MinSelectivity: *minSel,
		MaxSelectivity: *maxSel,
		Aggregate:      *aggregate,
		AggFraction:    *aggFraction,
		GroupBy:        *groupBy,
		Materialize:    *materialize,
		WeightedPaths:  *weighted,
	}
	if *alpha >= 0 {
		opts.Alpha = core.Float64(*alpha)
	}
	if *beta >= 0 {
		opts.Beta = core.Float64(*beta)
	}
	if *include != "" {
		opts.IncludePredicates = strings.Split(*include, ",")
	}
	if *exclude != "" {
		opts.ExcludePredicates = strings.Split(*exclude, ",")
	}
	if *verify != "" {
		// name=path pairs map verification files to datasets; a bare path
		// serves the (single) analysis file's dataset.
		backend := jodasim.New(jodasim.Options{})
		defer backend.Close()
		pairs := strings.Split(*verify, ",")
		for _, pair := range pairs {
			name, path, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				if len(statsList) > 1 || len(pairs) > 1 {
					return fmt.Errorf("generate: multiple datasets need -verify name=path pairs")
				}
				name, path = statsList[0].Name, pair
			}
			if _, err := backend.ImportFile(context.Background(), name, path); err != nil {
				return fmt.Errorf("generate: loading verification dataset: %w", err)
			}
		}
		opts.Backend = backend
	} else {
		fmt.Fprintln(out, "note: no -verify dataset; selectivities are estimated by scaling statistics (not recommended)")
	}

	session, err := core.Generate(opts, statsList...)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	if err := core.WriteSessionFile(filepath.Join(*outDir, "session.json"), session); err != nil {
		return err
	}
	if err := fsatomic.WriteFile(filepath.Join(*outDir, "session.dot"), []byte(session.DOT()), 0o644); err != nil {
		return err
	}
	selected := langs.All()
	if *languages != "" {
		selected = selected[:0]
		for _, short := range strings.Split(*languages, ",") {
			l, err := langs.ByShortName(strings.TrimSpace(short))
			if err != nil {
				return err
			}
			selected = append(selected, l)
		}
	}
	outputs, err := harness.OpenOutputs(*tracePath, "")
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	defer outputs.Close()
	for _, l := range selected {
		start := time.Now()
		script := langs.Script(l, session.Queries)
		outputs.Record(obs.Event{
			Type: obs.EvQueryTranslate, Lang: l.ShortName(),
			Queries: len(session.Queries), Duration: time.Since(start),
		})
		path := filepath.Join(*outDir, "queries."+l.ShortName())
		if err := fsatomic.WriteFile(path, []byte(script), 0o644); err != nil {
			return err
		}
	}
	if err := outputs.Close(); err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	fmt.Fprintf(out, "generated %d queries (preset %s, seed %d) into %s\n",
		len(session.Queries), session.Preset.Name, session.Seed, *outDir)
	for _, q := range session.Queries {
		fmt.Fprintf(out, "  %s: %s\n", q.ID, q)
	}
	return nil
}

func cmdRun(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	sessionPath := fs.String("session", "", "session.json from 'betze generate'")
	data := fs.String("data", "", "dataset file, or comma-separated name=path pairs for multi-dataset sessions")
	systems := fs.String("systems", "joda,mongodb,postgres,jq", "engines to benchmark: "+harness.SystemNames())
	timeout := fs.Duration("timeout", 10*time.Minute, "per-engine session timeout")
	threads := fs.Int("threads", 0, "JODA worker threads (0 = all CPUs)")
	tracePath := fs.String("trace", "", "write per-query trace events (JSON lines) to this file")
	metricsPath := fs.String("metrics-out", "", "write a metrics snapshot (JSON) to this file after the run")
	faultRate := fs.Float64("faults", 0, "inject faults at this rate in [0,1] (transient errors, latency spikes, crashes)")
	faultSeed := fs.Int64("fault-seed", 123, "fault-schedule seed: the same seed injects the same faults")
	retries := fs.Int("retries", 0, "retries per failed operation (0 disables the retry loop)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sessionPath == "" || *data == "" {
		return fmt.Errorf("run: -session and -data are required")
	}
	faults, pol, err := harness.FaultFlags(*faultRate, *faultSeed, *retries)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	file, err := core.ReadSessionFile(*sessionPath)
	if err != nil {
		return err
	}
	if len(file.Queries) == 0 {
		return fmt.Errorf("run: session has no queries")
	}
	imports, err := resolveDatasets(*data, file)
	if err != nil {
		return err
	}

	outputs, err := harness.OpenOutputs(*tracePath, *metricsPath)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	defer outputs.Close()
	ctx := obs.With(context.Background(), outputs.Scope)
	for _, name := range strings.Split(*systems, ",") {
		sys, ok := harness.Systems[strings.TrimSpace(name)]
		if !ok {
			return fmt.Errorf("run: unknown system %q (have %s)", name, harness.SystemNames())
		}
		// Records name engines by their own names, as the trace does.
		sys.Name = ""
		rec := harness.Unit{
			System: sys, Threads: *threads, Imports: imports, Queries: file.Queries, Seed: file.Seed,
			Faults: faults, Retry: pol, Timeout: *timeout,
		}.Run(ctx)
		printRecord(out, rec, imports, *timeout)
	}
	if err := outputs.Close(); err != nil {
		return fmt.Errorf("run: %w", err)
	}
	return nil
}

// resolveDatasets maps the session's root dataset names to files, sorted by
// name so the imports run in the same order every time. A single bare path
// serves the session's first base dataset; multi-dataset sessions take
// comma-separated name=path pairs.
func resolveDatasets(spec string, file *core.SessionFile) ([]harness.Import, error) {
	roots := make(map[string]bool)
	for _, n := range file.Nodes {
		if n.Parent == -1 {
			roots[n.Name] = true
		}
	}
	if len(roots) == 0 { // session files without graph info
		for _, q := range file.Queries {
			roots[q.Base] = true
		}
	}
	out := make(map[string]string)
	if !strings.Contains(spec, "=") {
		if strings.Contains(spec, ",") {
			return nil, fmt.Errorf("run: -data %q looks like a list; use name=path,name=path pairs", spec)
		}
		if len(roots) > 1 {
			return nil, fmt.Errorf("run: session uses %d datasets; pass -data name=path,name=path", len(roots))
		}
		return []harness.Import{{Name: file.Queries[0].Base, Path: spec}}, nil
	}
	for _, pair := range strings.Split(spec, ",") {
		name, path, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" || path == "" {
			return nil, fmt.Errorf("run: malformed -data pair %q (want name=path)", pair)
		}
		out[name] = path
	}
	for root := range roots {
		if _, ok := out[root]; !ok {
			return nil, fmt.Errorf("run: no -data mapping for dataset %q", root)
		}
	}
	imports := make([]harness.Import, 0, len(out))
	for name, path := range out {
		imports = append(imports, harness.Import{Name: name, Path: path})
	}
	sort.Slice(imports, func(i, j int) bool { return imports[i].Name < imports[j].Name })
	return imports, nil
}

// printRecord reports one engine's session: a line per import and per
// query, then the totals and, when any fired, the resilience counters.
func printRecord(out io.Writer, rec harness.SessionRecord, imports []harness.Import, timeout time.Duration) {
	for i, imp := range rec.Imports {
		fmt.Fprintf(out, "%-22s import %s: %8s (%d docs)\n", rec.Engine, imports[i].Name, imp.Duration.Round(time.Millisecond), imp.Docs)
	}
	if rec.Error != "" {
		fmt.Fprintf(out, "%-22s could not load dataset (%s)\n", rec.Engine, rec.Error)
		return
	}
	for _, q := range rec.Queries {
		if q.Error != "" {
			fmt.Fprintf(out, "%-22s %6s: skipped: %s\n", rec.Engine, q.ID, q.Error)
			continue
		}
		d := time.Duration(q.DurationUS) * time.Microsecond
		fmt.Fprintf(out, "%-22s %6s: %10s  (%d matched)\n", rec.Engine, q.ID, d, q.Matched)
	}
	if rec.TimedOut {
		fmt.Fprintf(out, "%-22s timed out after %v\n", rec.Engine, timeout)
	}
	fmt.Fprintf(out, "%-22s total w/o import: %s, wall: %s\n", rec.Engine,
		rec.Total().Round(time.Millisecond), rec.Wall().Round(time.Millisecond))
	if rec.Retries > 0 || rec.Skipped > 0 || rec.Recovered > 0 {
		fmt.Fprintf(out, "%-22s resilience: %d retried, %d skipped, %d recovered\n",
			rec.Engine, rec.Retries, rec.Skipped, rec.Recovered)
	}
}
