package main

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/joda-explore/betze"
	"github.com/joda-explore/betze/internal/datasets"
	"github.com/joda-explore/betze/internal/faultsim"
	"github.com/joda-explore/betze/internal/fsatomic"
	"github.com/joda-explore/betze/internal/harness"
	"github.com/joda-explore/betze/internal/jobqueue"
	"github.com/joda-explore/betze/internal/obs"
	"github.com/joda-explore/betze/internal/query"
)

// campaignSpec is the POST /api/campaigns request body: a full benchmark
// campaign — one synthetic dataset, one explorer preset, a set of session
// seeds and a set of engines. Every (seed, engine) pair is one work unit,
// checkpointed independently so a killed server resumes a campaign at unit
// granularity.
type campaignSpec struct {
	Dataset datasetSpec `json:"dataset"`
	// Preset is the explorer configuration: novice, intermediate, expert.
	Preset string `json:"preset"`
	// Queries overrides the preset's query count (0 = preset default).
	Queries int `json:"queries,omitempty"`
	// Seeds are the explorer seeds; one session is generated per seed.
	Seeds []int64 `json:"seeds"`
	// Engines are the systems under test, by their `betze run -systems`
	// names: joda, joda-evicted, mongodb, postgres, jq.
	Engines []string `json:"engines"`
	// FaultRate injects deterministic faults at this rate in [0,1); the
	// resilient executor retries around them (chaos testing the service).
	FaultRate float64 `json:"fault_rate,omitempty"`
	// FaultSeed seeds the fault schedule (default: the dataset seed).
	FaultSeed int64 `json:"fault_seed,omitempty"`
}

// validate checks every field and returns a field-tagged error suitable for
// the structured 400 response.
func (c *campaignSpec) validate() *fieldError {
	if _, err := datasets.ByName(c.Dataset.Source, datasets.RedditOptions{}); err != nil {
		return &fieldError{"dataset.source", fmt.Sprintf("unknown source %q (twitter, nobench, reddit)", c.Dataset.Source)}
	}
	if c.Dataset.Docs < 100 || c.Dataset.Docs > 200_000 {
		return &fieldError{"dataset.docs", fmt.Sprintf("document count %d outside 100..200000", c.Dataset.Docs)}
	}
	if _, err := betze.PresetByName(c.Preset); err != nil {
		return &fieldError{"preset", err.Error()}
	}
	if c.Queries < 0 || c.Queries > 200 {
		return &fieldError{"queries", fmt.Sprintf("query count %d outside 0..200", c.Queries)}
	}
	if len(c.Seeds) == 0 {
		return &fieldError{"seeds", "at least one session seed required"}
	}
	if len(c.Seeds) > 32 {
		return &fieldError{"seeds", fmt.Sprintf("%d seeds exceed the limit of 32", len(c.Seeds))}
	}
	if s, ok := repeated(c.Seeds); ok {
		return &fieldError{"seeds", fmt.Sprintf("seed %d listed twice", s)}
	}
	if len(c.Engines) == 0 {
		return &fieldError{"engines", fmt.Sprintf("at least one engine required (%s)", harness.SystemNames())}
	}
	for _, e := range c.Engines {
		if _, ok := harness.Systems[e]; !ok {
			return &fieldError{"engines", fmt.Sprintf("unknown engine %q (%s)", e, harness.SystemNames())}
		}
	}
	if e, ok := repeated(c.Engines); ok {
		return &fieldError{"engines", fmt.Sprintf("engine %q listed twice", e)}
	}
	if c.FaultRate < 0 || c.FaultRate >= 1 {
		return &fieldError{"fault_rate", fmt.Sprintf("rate %v outside [0,1)", c.FaultRate)}
	}
	return nil
}

// repeated returns the first element of xs that occurs earlier in xs. Each
// (seed, engine) pair is one unit with its own checkpoint, so a repeat would
// run one unit and serve its copies from that unit's checkpoint.
func repeated[T comparable](xs []T) (T, bool) {
	seen := make(map[T]bool, len(xs))
	for _, x := range xs {
		if seen[x] {
			return x, true
		}
		seen[x] = true
	}
	var zero T
	return zero, false
}

// unit is the campaign's (seed, engine) unit: the session's queries over
// the imported dataset on a fresh engine, through the resilient executor
// with det-timing durations. Artifacts name engines by their campaign
// names. The unit coordinates are mixed into the fault schedule's seed, so
// each unit sees its own (still deterministic) fault pattern.
func (c *campaignSpec) unit(seed int64, engName string, data harness.Import, queries []*query.Query, workdir string) harness.Unit {
	sys := harness.Systems[engName]
	sys.Name = engName
	u := harness.Unit{
		System: sys, Imports: []harness.Import{data}, DataKey: c.Dataset.key(), Queries: queries,
		Seed: seed, Retry: harness.DefaultRetryPolicy(), DetTiming: true, Dir: workdir,
		Faults: faultsim.Options{Seed: cmp.Or(c.FaultSeed, c.Dataset.Seed) + seed*31 + int64(len(engName)), Rate: c.FaultRate},
	}
	u.Retry.Seed = seed
	return u
}

// campaignArtifact is the final result document published atomically to
// <data>/artifacts/<id>.json when a campaign completes. Each unit is one
// (seed, engine) session record with det-timing durations: every field is a
// deterministic function of the spec, so an interrupted-and-resumed
// campaign publishes a byte-identical artifact.
type campaignArtifact struct {
	Campaign string                  `json:"campaign"`
	Spec     campaignSpec            `json:"spec"`
	Units    []harness.SessionRecord `json:"units"`
}

// runCampaign is the jobqueue executor: it acquires the dataset from the
// store (materialising it on a miss), generates one session per seed, and
// executes every (seed, engine) unit through the resilient executor,
// checkpointing each completed unit. On resume (after a crash, drain or
// requeue) completed units are loaded from their checkpoints and skipped.
// The final artifact is written atomically; a campaign is only Done once
// the artifact is durable.
func (s *server) runCampaign(ctx context.Context, job jobqueue.Snapshot, cp *jobqueue.Checkpoints) error {
	//lint:ignore determinism latency measurement feeds the ops histogram, not benchmark artifacts
	start := time.Now()
	defer func() { s.reg.Histogram(obs.MWebCampaignRun).Observe(time.Since(start)) }()

	var spec campaignSpec
	if err := json.Unmarshal(job.Payload, &spec); err != nil {
		return fmt.Errorf("decoding campaign spec: %w", err)
	}
	if ferr := spec.validate(); ferr != nil {
		return fmt.Errorf("invalid campaign spec: %s: %s", ferr.Field, ferr.Message)
	}

	ds, err := s.store.acquire(ctx, spec.Dataset)
	if err != nil {
		return err
	}
	defer s.store.release(ds)
	// The workdir holds the engines' scratch (jqsim's stored results) and
	// nothing a resume needs, so every exit removes it.
	workdir := filepath.Join(s.cfg.dataDir, "work", job.ID)
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return fmt.Errorf("campaign workdir: %w", err)
	}
	defer os.RemoveAll(workdir)

	// Import under the analyzer's dataset name: the generated queries
	// reference it.
	data := harness.Import{Name: ds.stats.Name, Path: ds.path}
	preset, _ := betze.PresetByName(spec.Preset)
	units := make([]harness.SessionRecord, 0, len(spec.Seeds)*len(spec.Engines))
	for _, seed := range spec.Seeds {
		session, err := betze.Generate(betze.Options{Preset: preset, Seed: seed, Queries: spec.Queries}, ds.stats)
		if err != nil {
			return fmt.Errorf("generating session seed %d: %w", seed, err)
		}
		for _, engName := range spec.Engines {
			u := spec.unit(seed, engName, data, session.Queries, workdir)
			rec, _, err := harness.RunUnit(ctx, cp, u.Key(), u)
			if err != nil {
				return err
			}
			if err := ctx.Err(); err != nil {
				return err // drain or cancel: checkpoints cover completed units
			}
			units = append(units, rec)
		}
	}

	artifact, err := json.MarshalIndent(campaignArtifact{Campaign: job.ID, Spec: spec, Units: units}, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding artifact: %w", err)
	}
	path := filepath.Join(s.cfg.dataDir, "artifacts", job.ID+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("artifact dir: %w", err)
	}
	if err := fsatomic.WriteFile(path, append(artifact, '\n'), 0o644); err != nil {
		return fmt.Errorf("publishing artifact: %w", err)
	}
	return nil
}
