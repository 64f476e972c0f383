package harness

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"github.com/joda-explore/betze/internal/faultsim"
	"github.com/joda-explore/betze/internal/jobqueue"
	"github.com/joda-explore/betze/internal/obs"
	"github.com/joda-explore/betze/internal/query"
)

// Unit is one (session, system) execution, the unit of the paper's
// evaluation (§VI) that `betze run`, betze-bench and betze-web all run.
type Unit struct {
	System  System // its Name is the record's Engine ("" = the engine's own)
	Threads int    // JODA's worker pool (0 = all CPUs)
	Imports []Import
	// DataKey identifies the imported documents: Fig. 10's NoBench sizes
	// share the import name "NoBench".
	DataKey   string
	Queries   []*query.Query
	Seed      int64
	Faults    faultsim.Options // wraps the engine when enabled
	Retry     RetryPolicy
	Timeout   time.Duration // bounds the session; 0 = no deadline
	DetTiming bool
	Dir       string // engine scratch ("" = the OS temp dir)
}

// Key is the hex SHA-256 of the unit's canonical JSON: two units with the
// same key compute the same record. Import paths and Dir say where bytes
// are stored, not what is computed, so they are left out; DataKey stands
// for the imported bytes.
func (u Unit) Key() string {
	canon, err := json.Marshal(struct {
		System    string           `json:"system"`
		Threads   int              `json:"threads"`
		Imports   []string         `json:"imports"`
		DataKey   string           `json:"data_key"`
		Queries   []*query.Query   `json:"queries"`
		Seed      int64            `json:"seed"`
		Faults    faultsim.Options `json:"faults"`
		Retry     RetryPolicy      `json:"retry"`
		Timeout   time.Duration    `json:"timeout"`
		DetTiming bool             `json:"det_timing"`
	}{u.System.Name, u.Threads, u.importNames(), u.DataKey, u.Queries, u.Seed, u.Faults, u.Retry, u.Timeout, u.DetTiming})
	if err != nil { // only NaN or infinite floats, which no input parses to
		panic(fmt.Sprintf("harness: unit key: %v", err))
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:])
}

func (u Unit) importNames() []string {
	names := make([]string, len(u.Imports))
	for i, imp := range u.Imports {
		names[i] = imp.Name
	}
	return names
}

// Run executes the unit on a fresh engine through RunSession, its events
// labelled "<imports>/seed<n>". An engine that cannot be built is the
// record's Error, like a failed import.
func (u Unit) Run(ctx context.Context) SessionRecord {
	eng, err := u.System.New(u.Dir, u.Threads)
	if err != nil {
		return SessionRecord{Engine: u.System.Name, Seed: u.Seed, Error: err.Error()}
	}
	if u.Faults.Enabled() {
		eng = faultsim.Wrap(eng, u.Faults)
	}
	defer eng.Close()
	if u.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, u.Timeout)
		defer cancel()
	}
	label := fmt.Sprintf("%s/seed%d", strings.Join(u.importNames(), ","), u.Seed)
	rec := RunSession(ctx, eng, u.Imports, u.Queries, u.Retry, label)
	if u.System.Name != "" {
		rec.Engine = u.System.Name
	}
	rec.Seed = u.Seed
	if u.DetTiming {
		rec.DetTiming()
	}
	return rec
}

// RunUnit runs u under checkpoint key of cp. A record saved there earlier
// is returned instead (resumed=true); one that does not decode strictly —
// a field this version does not write, such as the shape before
// SessionRecord — is an error with resumed=true: replaying it would report
// a result nothing measured. Otherwise u runs and its record is saved,
// unless ctx ended meanwhile and made the record an artifact of the
// interruption. A failed save is an error beside the record. Each caller
// decides what either error costs.
func RunUnit(ctx context.Context, cp *jobqueue.Checkpoints, key string, u Unit) (rec SessionRecord, resumed bool, err error) {
	sc := obs.From(ctx)
	ev := obs.Event{Kind: obs.KindSession, Engine: u.System.Name, Dataset: strings.Join(u.importNames(), ","), Session: key}
	if found, err := loadCheckpoint(cp, key, &rec); found {
		if err == nil {
			ev.Type = obs.EvResumeSkip
			sc.Record(ev)
			sc.Counter(obs.MHarnessResumeSkips).Inc()
		}
		return rec, true, err
	}
	rec = u.Run(ctx)
	if ctx.Err() != nil {
		return rec, false, nil
	}
	if err := saveCheckpoint(cp, key, rec); err != nil {
		return rec, false, err
	}
	ev.Type = obs.EvCheckpoint
	sc.Record(ev)
	return rec, false, nil
}

// loadCheckpoint strictly decodes the checkpoint under key into v, and
// reports whether there was one.
func loadCheckpoint(cp *jobqueue.Checkpoints, key string, v any) (bool, error) {
	data, ok := cp.Load(key)
	if !ok {
		return false, nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return true, fmt.Errorf("checkpoint %s: %w", key, err)
	}
	if dec.More() {
		return true, fmt.Errorf("checkpoint %s: trailing data", key)
	}
	return true, nil
}

// saveCheckpoint saves v's JSON under key.
func saveCheckpoint(cp *jobqueue.Checkpoints, key string, v any) error {
	data, err := json.Marshal(v)
	if err == nil {
		err = cp.Save(key, data)
	}
	if err != nil {
		return fmt.Errorf("checkpoint %s: %w", key, err)
	}
	return nil
}
