package main

import (
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
)

// campaignSpec is the POST /api/campaigns request body: a full benchmark
// campaign — one synthetic dataset, one explorer preset, a set of session
// seeds and a set of engines. Every (seed, engine) pair is one work unit,
// checkpointed independently so a killed server resumes a campaign at unit
// granularity.
type campaignSpec struct {
	Dataset struct {
		// Source is a synthetic dataset: twitter, nobench or reddit.
		Source string `json:"source"`
		// Docs is the dataset size (100..200000 for the service).
		Docs int `json:"docs"`
		// Seed drives dataset generation.
		Seed int64 `json:"seed"`
	} `json:"dataset"`
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

// unitKey names the checkpoint of one (seed, engine) unit.
func unitKey(seed int64, engine string) string {
	return fmt.Sprintf("seed-%d/%s", seed, engine)
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

// runCampaign is the jobqueue executor: it materialises the dataset,
// generates one session per seed, and executes every (seed, engine) unit
// through the resilient executor, checkpointing each completed unit. On
// resume (after a crash, drain or requeue) completed units are loaded from
// their checkpoints and skipped. The final artifact is written atomically;
// a campaign is only Done once the artifact is durable.
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

	workdir := filepath.Join(s.cfg.dataDir, "work", job.ID)
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return fmt.Errorf("campaign workdir: %w", err)
	}
	dataPath, stats, err := s.materialize(spec, workdir)
	if err != nil {
		return err
	}

	units := make([]harness.SessionRecord, 0, len(spec.Seeds)*len(spec.Engines))
	for _, seed := range spec.Seeds {
		var session *betze.Session
		for _, engName := range spec.Engines {
			if err := ctx.Err(); err != nil {
				return err // drain or cancel: checkpoints cover completed units
			}
			key := unitKey(seed, engName)
			if data, ok := cp.Load(key); ok {
				var u harness.SessionRecord
				if err := json.Unmarshal(data, &u); err != nil {
					return fmt.Errorf("checkpoint %s: %w", key, err)
				}
				units = append(units, u)
				continue
			}
			if session == nil {
				preset, _ := betze.PresetByName(spec.Preset)
				session, err = betze.Generate(betze.Options{
					Preset: preset, Seed: seed, Queries: spec.Queries,
				}, stats)
				if err != nil {
					return fmt.Errorf("generating session seed %d: %w", seed, err)
				}
			}
			u, err := s.runUnit(ctx, spec, engName, seed, stats.Name, dataPath, session, workdir)
			if err != nil {
				return err
			}
			data, err := json.Marshal(u)
			if err != nil {
				return fmt.Errorf("encoding unit %s: %w", key, err)
			}
			if err := cp.Save(key, data); err != nil {
				return err
			}
			units = append(units, u)
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
	// The campaign workdir is scratch; the artifact is the durable output.
	os.RemoveAll(workdir)
	return nil
}

// materialize generates the campaign's dataset deterministically from its
// seed, writes it as newline-delimited JSON (atomically, so a crash cannot
// leave a half file a resume would import), and analyzes it. An existing
// file from an interrupted attempt is reused: same source, size and seed
// produce the same bytes.
func (s *server) materialize(spec campaignSpec, workdir string) (string, *betze.Stats, error) {
	src, err := datasets.ByName(spec.Dataset.Source, datasets.RedditOptions{})
	if err != nil {
		return "", nil, fmt.Errorf("campaign dataset: %w", err)
	}
	docs := src.Generate(spec.Dataset.Docs, spec.Dataset.Seed)
	stats := betze.AnalyzeValues(src.Name, docs, betze.AnalyzeOptions{})
	path := filepath.Join(workdir, "dataset.ndjson")
	if _, err := os.Stat(path); err == nil {
		return path, stats, nil
	}
	if err := datasets.WriteDocs(path, docs); err != nil {
		return "", nil, fmt.Errorf("campaign dataset: %w", err)
	}
	return path, stats, nil
}

// runUnit executes one session on one fresh engine through
// harness.RunSession and returns its record with det-timing durations.
// Engine-level failures (an import the retry loop gave up on) land in the
// record's Error field — one broken engine does not fail the campaign.
func (s *server) runUnit(ctx context.Context, spec campaignSpec, engName string, seed int64, dsName, dataPath string, session *betze.Session, workdir string) (harness.SessionRecord, error) {
	eng, err := harness.Systems[engName].New(workdir, 0)
	if err != nil {
		return harness.SessionRecord{}, fmt.Errorf("engine %s: %w", engName, err)
	}
	defer eng.Close()
	if spec.FaultRate > 0 {
		fseed := spec.FaultSeed
		if fseed == 0 {
			fseed = spec.Dataset.Seed
		}
		// Mix the unit coordinates into the schedule seed so each unit
		// sees its own (still deterministic) fault pattern.
		eng = faultsim.Wrap(eng, faultsim.Uniform(spec.FaultRate, fseed+seed*31+int64(len(engName))))
	}

	pol := harness.DefaultRetryPolicy()
	pol.Seed = seed
	// Import under the analyzer's dataset name: the generated queries
	// reference it.
	u := harness.RunSession(ctx, eng, []harness.Import{{Name: dsName, Path: dataPath}}, session.Queries, pol,
		fmt.Sprintf("%s seed %d", engName, seed))
	if ctx.Err() != nil {
		return u, ctx.Err()
	}
	u.Engine, u.Seed = engName, seed
	u.DetTiming()
	return u, nil
}
