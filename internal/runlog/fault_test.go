package runlog

import (
	"bytes"
	"errors"
	"syscall"
	"testing"

	"github.com/joda-explore/betze/internal/errfs"
)

// Faultable-op layout of a fresh journal: Create issues one syncdir (op 0);
// each AppendSync is then write(header), write(payload), sync — so the
// first AppendSync occupies ops 1-3, the second ops 4-6, and so on.

// TestAppendEnospcRestoresBoundary is the crash-point regression test for
// the partial-append bug: an ENOSPC mid-record used to leave half a record
// in the segment with the file offset advanced, so every LATER acked record
// landed after garbage and recovery truncated at the garbage — losing them.
// Append must restore the boundary so records acked after a transient write
// failure survive.
func TestAppendEnospcRestoresBoundary(t *testing.T) {
	mem := errfs.NewMem()
	// Fault the header write of the second record (op 4, see layout above).
	faulty := errfs.NewFaulty(mem, errfs.Plan{4: errfs.FaultENOSPC})
	w, err := Create("j", Options{FS: faulty})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendSync([]byte("first")); err != nil {
		t.Fatal(err)
	}
	err = w.AppendSync([]byte("doomed"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want injected ENOSPC, got %v", err)
	}
	if !errors.Is(err, errfs.ErrInjected) {
		t.Fatalf("injected fault not marked: %v", err)
	}
	// The transient fault is over; the writer must keep working and the
	// record acked now must survive recovery.
	if err := w.AppendSync([]byte("after")); err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverFS(mem, "j")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("first"), []byte("after")}
	if len(rec.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d (truncated=%v reason=%v)",
			len(rec.Records), len(want), rec.Truncated, rec.Reason)
	}
	for i := range want {
		if !bytes.Equal(rec.Records[i], want[i]) {
			t.Fatalf("record %d: got %q want %q", i, rec.Records[i], want[i])
		}
	}
	if rec.Truncated {
		t.Fatalf("recovery truncated after boundary restore: %v", rec.Reason)
	}
}

// TestSyncFailurePoisonsWriter: a failed fsync must poison the writer — the
// kernel may have dropped the dirty pages, so a retried "success" would ack
// records that never became durable.
func TestSyncFailurePoisonsWriter(t *testing.T) {
	mem := errfs.NewMem()
	// Fault the fsync of the first AppendSync (op 3, see layout above).
	faulty := errfs.NewFaulty(mem, errfs.Plan{3: errfs.FaultSyncFail})
	w, err := Create("j", Options{FS: faulty})
	if err != nil {
		t.Fatal(err)
	}
	err = w.AppendSync([]byte("first"))
	if !errors.Is(err, ErrWriterFailed) {
		t.Fatalf("want ErrWriterFailed from failed fsync, got %v", err)
	}
	if err := w.Append([]byte("more")); !errors.Is(err, ErrWriterFailed) {
		t.Fatalf("poisoned writer accepted an append: %v", err)
	}
	if err := w.Sync(); !errors.Is(err, ErrWriterFailed) {
		t.Fatalf("poisoned writer reported a clean sync: %v", err)
	}
}

// TestRecoverReadErrorIsIOError: a failed read of the journal is an I/O
// error, never a torn or corrupt recovery — reporting it as truncation
// would drop every record of a journal that is merely unreadable for now.
func TestRecoverReadErrorIsIOError(t *testing.T) {
	mem := errfs.NewMem()
	w, err := Create("j", Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendSync([]byte("one")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	faulty := errfs.NewFaulty(mem, errfs.Plan{0: errfs.FaultReadErr})
	rec, err := RecoverFS(faulty, "j")
	if !errors.Is(err, syscall.EIO) || rec != nil {
		t.Fatalf("faulted read = %+v, %v; want an EIO error", rec, err)
	}
	if errors.Is(err, ErrTorn) || errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTooLarge) {
		t.Fatalf("I/O error classified as journal damage: %v", err)
	}
	if rec, err := RecoverFS(faulty, "j"); err != nil || len(rec.Records) != 1 {
		t.Fatalf("retry after the transient fault = %+v, %v", rec, err)
	}
}
