package runlog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/joda-explore/betze/internal/errfs"
)

func mustCreate(t *testing.T, dir string, opts Options) *Writer {
	t.Helper()
	w, err := Create(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func appendAll(t *testing.T, w *Writer, payloads ...[]byte) {
	t.Helper()
	for _, p := range payloads {
		if err := w.AppendSync(p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := mustCreate(t, dir, Options{NoSync: true})
	want := [][]byte{[]byte("one"), []byte("two"), {}, []byte("four-longer-payload")}
	appendAll(t, w, want...)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Truncated {
		t.Fatalf("clean journal reported truncated: %v", rec.Reason)
	}
	if len(rec.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), len(want))
	}
	for i := range want {
		if !bytes.Equal(rec.Records[i], want[i]) {
			t.Errorf("record %d = %q, want %q", i, rec.Records[i], want[i])
		}
	}
}

func TestCreateRefusesExistingJournal(t *testing.T) {
	dir := t.TempDir()
	w := mustCreate(t, dir, Options{NoSync: true})
	appendAll(t, w, []byte("x"))
	w.Close()
	if _, err := Create(dir, Options{}); !errors.Is(err, ErrExists) {
		t.Errorf("Create over existing journal: %v, want ErrExists", err)
	}
}

func TestRecoverMissingJournal(t *testing.T) {
	if _, err := Recover(t.TempDir()); !errors.Is(err, ErrNoJournal) {
		t.Errorf("Recover of empty dir: %v, want ErrNoJournal", err)
	}
	if _, err := Open(filepath.Join(t.TempDir(), "nope"), Options{}); !errors.Is(err, ErrNoJournal) {
		t.Errorf("Open of missing dir: %v, want ErrNoJournal", err)
	}
}

// writeJournal builds a small journal and returns its file path and full
// payload list.
func writeJournal(t *testing.T, dir string) (string, [][]byte) {
	t.Helper()
	w := mustCreate(t, dir, Options{NoSync: true})
	payloads := [][]byte{
		[]byte(`{"type":"run_start"}`),
		[]byte(`{"type":"session","seed":1}`),
		[]byte(`{"type":"session","seed":2}`),
		[]byte(`{"type":"run_end"}`),
	}
	appendAll(t, w, payloads...)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, journalFile), payloads
}

// TestTruncationAtEveryOffset cuts the journal at every possible byte length
// and asserts recovery never fails, never panics, and returns exactly the
// records whose bytes fully survived.
func TestTruncationAtEveryOffset(t *testing.T) {
	src := t.TempDir()
	seg, payloads := writeJournal(t, src)
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Record boundaries: offsets where a prefix ends exactly on a record.
	boundaries := map[int64]int{}
	off, n := int64(0), 0
	boundaries[0] = 0
	for _, p := range payloads {
		off += headerSize + int64(len(p))
		n++
		boundaries[off] = n
	}
	for cut := 0; cut <= len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalFile), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(dir)
		if err != nil {
			t.Fatalf("cut=%d: Recover failed: %v", cut, err)
		}
		wantRecords := 0
		for b, count := range boundaries {
			if b <= int64(cut) && count > wantRecords {
				wantRecords = count
			}
		}
		if len(rec.Records) != wantRecords {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(rec.Records), wantRecords)
		}
		_, onBoundary := boundaries[int64(cut)]
		if rec.Truncated == onBoundary {
			t.Fatalf("cut=%d: Truncated=%v, boundary=%v", cut, rec.Truncated, onBoundary)
		}
		if rec.Truncated && !errors.Is(rec.Reason, ErrTorn) {
			t.Fatalf("cut=%d: reason = %v, want ErrTorn", cut, rec.Reason)
		}
		// A torn journal must re-open cleanly for append and end up whole.
		w, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut=%d: Open after truncation: %v", cut, err)
		}
		if err := w.AppendSync([]byte("tail")); err != nil {
			t.Fatalf("cut=%d: append after truncation: %v", cut, err)
		}
		w.Close()
		rec2, err := Recover(dir)
		if err != nil || rec2.Truncated {
			t.Fatalf("cut=%d: post-repair recovery: %+v, %v", cut, rec2, err)
		}
		if len(rec2.Records) != wantRecords+1 {
			t.Fatalf("cut=%d: post-repair records = %d, want %d", cut, len(rec2.Records), wantRecords+1)
		}
		if !bytes.Equal(rec2.Records[wantRecords], []byte("tail")) {
			t.Fatalf("cut=%d: appended record corrupted: %q", cut, rec2.Records[wantRecords])
		}
	}
}

// TestBitFlips flips every byte of the journal (one at a time) and asserts
// recovery never panics, never errors, and never returns a record that
// differs from what was written — corruption only ever truncates.
func TestBitFlips(t *testing.T) {
	src := t.TempDir()
	seg, payloads := writeJournal(t, src)
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	target := filepath.Join(dir, journalFile)
	for i := 0; i < len(full); i++ {
		mutated := append([]byte(nil), full...)
		mutated[i] ^= 0x40
		if err := os.WriteFile(target, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(dir)
		if err != nil {
			t.Fatalf("flip@%d: Recover failed: %v", i, err)
		}
		for j, r := range rec.Records {
			if j < len(payloads) && !bytes.Equal(r, payloads[j]) {
				t.Fatalf("flip@%d: record %d silently corrupted: %q", i, j, r)
			}
		}
		if !rec.Truncated {
			t.Fatalf("flip@%d: corruption not detected", i)
		}
		if !errors.Is(rec.Reason, ErrCorrupt) && !errors.Is(rec.Reason, ErrTorn) && !errors.Is(rec.Reason, ErrTooLarge) {
			t.Fatalf("flip@%d: reason %v lacks a sentinel", i, rec.Reason)
		}
	}
}

func TestOversizedAppendRejected(t *testing.T) {
	w := mustCreate(t, t.TempDir(), Options{NoSync: true})
	defer w.Close()
	if err := w.Append(make([]byte, MaxRecord+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized append: %v, want ErrTooLarge", err)
	}
}

// TestCloseLeavesCleanJournal pins the graceful-shutdown contract: Close is
// the whole of a clean shutdown — every record survives a subsequent
// Recover untruncated, closing twice is a no-op, and a journal reopened for
// append continues after the last record.
func TestCloseLeavesCleanJournal(t *testing.T) {
	dir := t.TempDir()
	w := mustCreate(t, dir, Options{NoSync: true})
	const n = 20
	for i := 0; i < n; i++ {
		if err := w.Append([]byte(fmt.Sprintf("record-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Truncated || len(rec.Records) != n {
		t.Fatalf("recovered %d records (truncated=%v), want %d clean", len(rec.Records), rec.Truncated, n)
	}
	w2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w2, []byte("record-after-reopen"))
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err = Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Truncated || len(rec.Records) != n+1 || string(rec.Records[n]) != "record-after-reopen" {
		t.Fatalf("after reopen: %d records (truncated=%v), want %d", len(rec.Records), rec.Truncated, n+1)
	}
}

// TestLegacyJournalRefused: a directory holding a sealed segment of the
// multi-segment format fails Create, Open and Recover loudly, whether or
// not its current.wal survives — replaying current.wal alone would drop
// every sealed record without a word.
func TestLegacyJournalRefused(t *testing.T) {
	for _, withActive := range []bool{false, true} {
		mem := errfs.NewMem()
		if err := mem.MkdirAll("j", 0o755); err != nil {
			t.Fatal(err)
		}
		files := []string{legacySegment}
		if withActive {
			files = append(files, journalFile)
		}
		for _, name := range files {
			f, err := mem.OpenFile("j/"+name, os.O_CREATE|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
		opts := Options{FS: mem}
		_, cerr := Create("j", opts)
		_, oerr := Open("j", opts)
		_, rerr := RecoverFS(mem, "j")
		for op, err := range map[string]error{"Create": cerr, "Open": oerr, "Recover": rerr} {
			if !errors.Is(err, ErrLegacyJournal) {
				t.Errorf("current.wal=%v: %s = %v, want ErrLegacyJournal", withActive, op, err)
				continue
			}
			if !strings.Contains(err.Error(), "predates the single-file format") {
				t.Errorf("%s error does not say why: %v", op, err)
			}
		}
	}
}
