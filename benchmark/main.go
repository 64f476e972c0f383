// Command benchmark times BETZE end to end and layer by layer on four named
// workloads: the paper's pipeline (analyze → generate → translate → import →
// execute, per engine sim) on three dataset families, and the betze-web
// campaign path (submit → journal → worker → artifact) over HTTP.
//
//	go run ./benchmark -workload all -seed 1 -out benchmark/out/latest.json
//	go run ./benchmark -workload twitter-explore -seed 7 -seconds 20 -trace 1
//	go run ./benchmark -compare old.json new.json
//
// One workload runs per process. The last line of standard output is one
// JSON object — correct, attempted, failed, metrics — and the exit status is
// non-zero when an operation failed or an output was wrong. BENCHMARK.json at
// the repository root names the command, the workloads and the metrics;
// benchmark/README.md defines them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	scale    float64
	trace    bool
	out      string
	// buildDir receives the betze-web binary and the run's scratch
	// directory; it is inside the checkout and ignored by git.
	buildDir string
	// traceDir receives trace-<workload>.jsonl from a traced run.
	traceDir string
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace, runs int
	var compare, printManifest bool
	fs.StringVar(&cfg.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "dataset seed and first session seed")
	fs.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "measuring window of one run")
	fs.Float64Var(&cfg.scale, "scale", defaultScale, "factor on every workload's full-size document count")
	fs.IntVar(&trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.StringVar(&cfg.out, "out", "", "result file to write")
	fs.StringVar(&cfg.buildDir, "build-dir", ".bench_build", "directory for build outputs and scratch data")
	fs.StringVar(&cfg.traceDir, "trace-dir", filepath.Join("benchmark", "out"), "directory for trace-<workload>.jsonl")
	fs.IntVar(&runs, "runs", 1, "with -workload all: untraced runs per workload")
	fs.BoolVar(&compare, "compare", false, "compare two result files: -compare old.json new.json")
	fs.BoolVar(&printManifest, "manifest", false, "print BENCHMARK.json as the registries define it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace != 0

	var err error
	switch {
	case printManifest:
		_, err = stdout.Write(buildManifest().json())
	case compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result files")
			return 2
		}
		var worse bool
		if worse, err = compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err == nil && worse {
			return 1
		}
	case cfg.workload == "all":
		err = runAll(ctx, cfg, runs, stdout, stderr)
	default:
		var res *runResult
		if res, err = runWorkload(ctx, cfg); err != nil {
			break
		}
		res.print(stdout)
		if cfg.out != "" {
			if err = writeResultFile(cfg.out, []runResult{*res}); err != nil {
				break
			}
		}
		fmt.Fprintf(stdout, "%s\n", res.contractLine())
		if !res.Correct {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runWorkload measures one workload once. An error means the benchmark itself
// could not run; failed operations and wrong outputs are in the result.
func runWorkload(ctx context.Context, cfg config) (*runResult, error) {
	def, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 || cfg.scale <= 0 {
		return nil, errors.New("-seconds and -scale must be positive")
	}
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.buildDir, "work-"+def.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	res := &runResult{
		Env:      newEnvHeader(cfg.seed, cfg.scale, cfg.seconds),
		Workload: def.Name, Trace: cfg.trace, Docs: def.docs(cfg.scale),
		Metrics: map[string]measured{},
	}
	p := newPipeline(def, res.Docs, cfg.seed, work, res)
	window := time.Duration(cfg.seconds * float64(time.Second))
	var tr *tracer
	var root span
	if cfg.trace {
		tr = newTracer(fmt.Sprintf("%s-seed%d", def.Name, cfg.seed))
		root = tr.start(span{}, def.Name)
		// The traced window holds every repeat twice, and the kernel
		// replays follow it.
		window = window * 2 / 5
	}

	var web *webRun
	if def.Web {
		web = &webRun{p: p, bin: filepath.Join(cfg.buildDir, "betze-web"), workDir: work}
		defer func() { web.srv.kill() }() // an error path must leave no child behind
	}
	m, err := p.measure(ctx, window, tr, root, web)
	if err != nil {
		return nil, err
	}
	res.Repeats = len(m.untraced)
	if !cfg.trace {
		res.set("setup_s", median(m.setups), len(m.setups))
		pid := os.Getpid()
		if web != nil {
			pid = web.srv.cmd.Process.Pid
		}
		rss, err := vmHWM(pid)
		if err != nil {
			return nil, err
		}
		res.set("peak_rss_mb", rss, 1)
		p.endToEnd(m.untraced, def.Web)
	}
	if web != nil {
		if err := web.finish(ctx, cfg.trace); err != nil {
			return nil, err
		}
	}

	docs, err := p.readDocs(ctx)
	if err != nil {
		return nil, err
	}
	res.SessionsDigest = p.check(docs, m.untraced)
	if web != nil {
		web.verify()
	}
	if cfg.trace {
		p.check(docs, m.traced)
		res.set("datasets.write_mb_per_s", float64(p.size)/1e6/median(m.writes), len(m.writes))
		p.perLayer(m.traced, m.untraced)
		rp := &replay{p: p, res: res, slice: time.Duration(cfg.seconds * float64(time.Second) / 100), docs: docs}
		var sessions []sessionRun
		for _, rep := range m.traced[:minRepeats] {
			sessions = append(sessions, rep.sessions...)
		}
		if err := rp.run(ctx, sessions); err != nil {
			return nil, err
		}
		rp.executeSplit(m.traced)
		processMetrics(res)
		root.end("repeats", len(m.traced))
		res.SelfTimes = selfTimes(tr.spans)
		if err := tr.flush(filepath.Join(cfg.traceDir, "trace-"+def.Name+".jsonl")); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}

// runAll measures every workload, each run in a process of its own so that
// heap state and VmHWM are per workload: `runs` untraced runs and one traced
// run each, merged into one result file.
func runAll(ctx context.Context, cfg config, runs int, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		return err
	}
	var all []runResult
	failed := false
	for _, def := range workloads {
		for i := 0; i <= runs; i++ {
			trace := 0
			if i == runs {
				trace = 1
			}
			part := filepath.Join(cfg.buildDir, fmt.Sprintf("part-%s-%d.json", def.Name, i))
			cmd := exec.CommandContext(ctx, self,
				"-workload", def.Name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
				"-scale", fmt.Sprint(cfg.scale), "-trace", fmt.Sprint(trace), "-build-dir", cfg.buildDir, "-trace-dir", cfg.traceDir, "-out", part)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				failed = true // the child printed why; keep its result if it wrote one
			} else if err != nil {
				return err
			}
			f, err := readResultFile(part)
			os.Remove(part)
			if err != nil {
				return fmt.Errorf("workload %s: %w", def.Name, err)
			}
			all = append(all, f.Runs...)
		}
	}
	if cfg.out != "" {
		if err := writeResultFile(cfg.out, all); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "results written to", cfg.out)
	}
	if failed {
		return errors.New("at least one workload failed its correctness gate")
	}
	return nil
}
