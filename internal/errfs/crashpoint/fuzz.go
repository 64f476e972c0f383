package crashpoint

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/joda-explore/betze/internal/errfs"
	"github.com/joda-explore/betze/internal/fsatomic"
	"github.com/joda-explore/betze/internal/jobqueue"
	"github.com/joda-explore/betze/internal/runlog"
)

// Violation is one invariant broken at one crash point.
type Violation struct {
	Point     Point
	Invariant string
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s at %s: %s", v.Invariant, v.Point, v.Detail)
}

// Report is the outcome of one fuzz workload: how many crash points were
// enumerated and which invariants broke where.
type Report struct {
	Points     int
	Violations []Violation
}

func (r *Report) violate(pt Point, invariant, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Point: pt, Invariant: invariant, Detail: fmt.Sprintf(format, args...),
	})
}

// ackMark pairs a trace cursor (Mem.TraceLen at the moment a durability
// claim returned to the caller) with what was claimed durable by then.
type ackMark struct {
	cursor int
	count  int // records acked (runlog workload)
}

// FuzzRunlog drives a scripted runlog writer — appends, fsync acks, a
// close/reopen, a final close — over a recording filesystem, then
// re-runs Recover at every crash point and checks the write-ahead-log
// contract: recovered records are a prefix of the appended ones, and no
// record acked (AppendSync'd) before the crash is lost.
func FuzzRunlog(seed int64) Report {
	var rep Report
	fs := errfs.NewMem()
	const dir = "journal"
	opts := runlog.Options{FS: fs}

	var appended [][]byte
	var acks []ackMark
	ack := func() { acks = append(acks, ackMark{cursor: fs.TraceLen(), count: len(appended)}) }

	w, err := runlog.Create(dir, opts)
	if err != nil {
		rep.violate(Point{}, "workload", "create: %v", err)
		return rep
	}
	for i := 0; i < 18; i++ {
		payload := []byte(fmt.Sprintf("record-%03d-%s", i, strings.Repeat("x", (i*7)%29)))
		appended = append(appended, payload)
		if i%3 == 2 {
			// Unsynced append: durable only at the next sync boundary.
			if err := w.Append(payload); err != nil {
				rep.violate(Point{}, "workload", "append %d: %v", i, err)
				return rep
			}
			continue
		}
		if err := w.AppendSync(payload); err != nil {
			rep.violate(Point{}, "workload", "appendsync %d: %v", i, err)
			return rep
		}
		ack()
	}
	// Graceful close + reopen mid-stream (Close syncs, so it acks too).
	if err := w.Close(); err != nil {
		rep.violate(Point{}, "workload", "close: %v", err)
		return rep
	}
	ack()
	w, err = runlog.Open(dir, opts)
	if err != nil {
		rep.violate(Point{}, "workload", "reopen: %v", err)
		return rep
	}
	for i := 18; i < 24; i++ {
		payload := []byte(fmt.Sprintf("record-%03d", i))
		appended = append(appended, payload)
		if err := w.AppendSync(payload); err != nil {
			rep.violate(Point{}, "workload", "appendsync %d: %v", i, err)
			return rep
		}
		ack()
	}
	if err := w.Close(); err != nil {
		rep.violate(Point{}, "workload", "close: %v", err)
		return rep
	}
	ack()

	trace := fs.Trace()
	for _, pt := range Points(trace, seed) {
		rep.Points++
		mem, err := Materialize(trace, pt)
		if err != nil {
			rep.violate(pt, "materialize", "%v", err)
			continue
		}
		var records [][]byte
		rec, err := runlog.RecoverFS(mem, dir)
		switch {
		case errors.Is(err, runlog.ErrNoJournal):
			// Nothing survived; legal only if nothing was acked yet.
		case err != nil:
			rep.violate(pt, "recover", "%v", err)
			continue
		default:
			records = rec.Records
		}
		// Invariant 1a: recovered records are a prefix of the appended ones.
		if len(records) > len(appended) {
			rep.violate(pt, "prefix", "recovered %d > appended %d", len(records), len(appended))
			continue
		}
		prefixOK := true
		for i, r := range records {
			if !bytes.Equal(r, appended[i]) {
				rep.violate(pt, "prefix", "record %d diverges: got %q want %q", i, r, appended[i])
				prefixOK = false
				break
			}
		}
		if !prefixOK {
			continue
		}
		// Invariant 1b: no acked record lost.
		ackCount := 0
		for _, a := range acks {
			if a.cursor <= pt.Index {
				ackCount = a.count
			}
		}
		if len(records) < ackCount {
			rep.violate(pt, "acked-lost", "recovered %d records, %d were acked before the crash", len(records), ackCount)
		}
	}
	return rep
}

// FuzzFsatomic publishes three successive versions of one artifact with
// fsatomic.WriteFileFS over a recording filesystem, then checks at every
// crash point that the final name is never torn: it is either absent or
// holds exactly one complete version, and never a version older than the
// last committed (acked) one.
func FuzzFsatomic(seed int64) Report {
	var rep Report
	fs := errfs.NewMem()
	const dir, final = "out", "out/artifact.json"
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		rep.violate(Point{}, "workload", "mkdir: %v", err)
		return rep
	}
	versions := [][]byte{
		[]byte(`{"version":1,"rows":[1,2,3]}`),
		[]byte(`{"version":2,"rows":[4,5,6,7],"note":"longer than v1"}`),
		[]byte(`{"version":3}`),
	}
	var acks []ackMark // count = latest committed version index + 1
	for vi, data := range versions {
		if err := fsatomic.WriteFileFS(fs, final, data, 0o644); err != nil {
			rep.violate(Point{}, "workload", "writefile v%d: %v", vi+1, err)
			return rep
		}
		acks = append(acks, ackMark{cursor: fs.TraceLen(), count: vi + 1})
	}

	trace := fs.Trace()
	for _, pt := range Points(trace, seed) {
		rep.Points++
		mem, err := Materialize(trace, pt)
		if err != nil {
			rep.violate(pt, "materialize", "%v", err)
			continue
		}
		data, err := mem.ReadFile(final)
		acked := 0
		for _, a := range acks {
			if a.cursor <= pt.Index {
				acked = a.count
			}
		}
		if err != nil {
			// Absent is legal only before the first commit was acked.
			if acked > 0 {
				rep.violate(pt, "acked-lost", "artifact absent after v%d was committed", acked)
			}
			continue
		}
		// Invariant 2a: never torn — exactly one complete version.
		got := -1
		for vi, v := range versions {
			if bytes.Equal(data, v) {
				got = vi + 1
				break
			}
		}
		if got < 0 {
			rep.violate(pt, "torn-artifact", "final name holds %d bytes matching no complete version", len(data))
			continue
		}
		// Invariant 2b: never older than the last committed version.
		if got < acked {
			rep.violate(pt, "acked-lost", "artifact rolled back to v%d after v%d was committed", got, acked)
		}
	}
	return rep
}

// qSnapshot is the externally acknowledged queue state at one ack cursor.
type qSnapshot struct {
	cursor int
	jobs   map[string]jobqueue.State
	chks   map[string]map[string]string
}

// FuzzJobqueue drives a submit/claim/run/checkpoint/done/fail/cancel
// lifecycle over a journaled queue on a recording filesystem, then re-opens
// the queue at every crash point and checks replay consistency with the ack
// history: recovery never errors, acked jobs still exist, acked terminal
// states never change, acked checkpoints are never lost, and no phantom
// jobs appear.
func FuzzJobqueue(seed int64) Report {
	var rep Report
	fs := errfs.NewMem()
	const dir = "queue"
	t0 := time.Unix(1700000000, 0)
	mkOpts := func(fsys errfs.FS) jobqueue.Options {
		return jobqueue.Options{FS: fsys, Now: func() time.Time { return t0 }}
	}

	q, err := jobqueue.Open(dir, mkOpts(fs))
	if err != nil {
		rep.violate(Point{}, "workload", "open: %v", err)
		return rep
	}
	var snaps []qSnapshot
	known := make(map[string]bool)
	cur := map[string]jobqueue.State{}
	curChk := map[string]map[string]string{}
	ack := func() {
		s := qSnapshot{cursor: fs.TraceLen(), jobs: map[string]jobqueue.State{}, chks: map[string]map[string]string{}}
		for id, st := range cur {
			s.jobs[id] = st
		}
		for id, m := range curChk {
			c := map[string]string{}
			for k, v := range m {
				c[k] = v
			}
			s.chks[id] = c
		}
		snaps = append(snaps, s)
	}
	submit := func(tenant string) string {
		snap, err := q.Submit(tenant, json.RawMessage(fmt.Sprintf(`{"tenant":%q}`, tenant)))
		if err != nil {
			rep.violate(Point{}, "workload", "submit: %v", err)
			return ""
		}
		known[snap.ID] = true
		cur[snap.ID] = jobqueue.StateQueued
		ack()
		return snap.ID
	}
	claim := func() string {
		snap, err := q.Claim(context.Background())
		if err != nil {
			rep.violate(Point{}, "workload", "claim: %v", err)
			return ""
		}
		cur[snap.ID] = jobqueue.StateClaimed
		ack()
		return snap.ID
	}

	submit("alpha") // j1: runs to completion
	submit("alpha") // j2: fails
	j3 := submit("beta")
	j4 := submit("beta")
	if len(rep.Violations) > 0 {
		return rep
	}
	c1 := claim() // j1
	if err := q.Running(c1, nil); err == nil {
		cur[c1] = jobqueue.StateRunning
		ack()
	}
	if err := q.Checkpoint(c1, "unit-1", json.RawMessage(`{"done":1}`)); err == nil {
		if curChk[c1] == nil {
			curChk[c1] = map[string]string{}
		}
		curChk[c1]["unit-1"] = `{"done":1}`
		ack()
	}
	if err := q.Done(c1); err == nil {
		cur[c1] = jobqueue.StateDone
		ack()
	}
	c2 := claim() // j2
	if err := q.Fail(c2, errors.New("boom")); err == nil {
		cur[c2] = jobqueue.StateFailed
		ack()
	}
	if _, err := q.Cancel(j4); err == nil {
		cur[j4] = jobqueue.StateCancelled
		ack()
	}
	c3 := claim() // j3: left claimed at the crash — recovery must requeue it
	_ = c3
	_ = j3
	if err := q.Close(); err != nil {
		rep.violate(Point{}, "workload", "close: %v", err)
		return rep
	}
	ack()

	trace := fs.Trace()
	for _, pt := range Points(trace, seed) {
		rep.Points++
		mem, err := Materialize(trace, pt)
		if err != nil {
			rep.violate(pt, "materialize", "%v", err)
			continue
		}
		// Invariant 3a: recovery replay never errors, whatever survived.
		q2, err := jobqueue.Open(dir, mkOpts(mem))
		if err != nil {
			rep.violate(pt, "replay", "%v", err)
			continue
		}
		var acked *qSnapshot
		for i := range snaps {
			if snaps[i].cursor <= pt.Index {
				acked = &snaps[i]
			}
		}
		if acked != nil {
			for id, st := range acked.jobs {
				snap, err := q2.Get(id)
				if err != nil {
					// Invariant 3b: no acked job vanishes.
					rep.violate(pt, "acked-lost", "job %s (acked %s): %v", id, st, err)
					continue
				}
				// Invariant 3c: acked terminal states are forever.
				if st.Terminal() && snap.State != st {
					rep.violate(pt, "terminal-changed", "job %s acked %s, replayed as %s", id, st, snap.State)
				}
			}
			// Invariant 3d: acked checkpoints survive replay.
			for id, m := range acked.chks {
				for key, want := range m {
					data, ok := q2.LoadCheckpoint(id, key)
					if !ok || string(data) != want {
						rep.violate(pt, "checkpoint-lost", "job %s key %s: got %q want %q", id, key, data, want)
					}
				}
			}
		}
		// Invariant 3e: no phantom jobs.
		for _, snap := range q2.List() {
			if !known[snap.ID] {
				rep.violate(pt, "phantom-job", "replay invented job %s", snap.ID)
			}
		}
		q2.Close()
	}
	return rep
}
