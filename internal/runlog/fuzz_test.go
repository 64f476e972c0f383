package runlog

import (
	"bytes"
	"os"
	"testing"

	"github.com/joda-explore/betze/internal/errfs"
)

// FuzzRecover treats arbitrary bytes as a journal file. Recovery must never
// panic; re-framing the records it recovered must reproduce exactly the
// input's clean prefix; and Open must repair whatever follows that prefix,
// so one more AppendSync is recovered right after those records with
// Truncated false. The seed corpus in testdata/fuzz/FuzzRecover covers an
// empty file, a lone header, a length above MaxRecord, a CRC flip, a torn
// payload, and two good records followed by garbage.
func FuzzRecover(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		mem := errfs.NewMem()
		writeFile(t, mem, "j/"+journalFile, data)
		rec, err := RecoverFS(mem, "j")
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}

		clean := reframe(t, rec.Records)
		if int64(len(clean)) != rec.Offset {
			t.Fatalf("re-framed %d bytes, Offset %d", len(clean), rec.Offset)
		}
		if len(clean) > len(data) || !bytes.Equal(clean, data[:len(clean)]) {
			t.Fatalf("re-framed records are not the input's prefix")
		}
		if rec.Truncated != (len(clean) < len(data)) {
			t.Fatalf("Truncated=%v with %d clean of %d bytes", rec.Truncated, len(clean), len(data))
		}

		w, err := Open("j", Options{FS: mem})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		tail := []byte("appended-after-recovery")
		if err := w.AppendSync(tail); err != nil {
			t.Fatalf("AppendSync: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		after, err := RecoverFS(mem, "j")
		if err != nil {
			t.Fatalf("Recover after append: %v", err)
		}
		if after.Truncated {
			t.Fatalf("repaired journal still truncated: %v", after.Reason)
		}
		want := append(rec.Records, tail)
		if len(after.Records) != len(want) {
			t.Fatalf("recovered %d records after append, want %d", len(after.Records), len(want))
		}
		for i := range want {
			if !bytes.Equal(after.Records[i], want[i]) {
				t.Fatalf("record %d = %q, want %q", i, after.Records[i], want[i])
			}
		}
	})
}

// writeFile stores data under name on mem, creating the parent directory.
func writeFile(t *testing.T, mem *errfs.Mem, name string, data []byte) {
	t.Helper()
	if err := mem.MkdirAll("j", 0o755); err != nil {
		t.Fatal(err)
	}
	fh, err := mem.OpenFile(name, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.Write(data); err != nil {
		t.Fatal(err)
	}
	fh.Close()
}

// reframe writes records through a fresh Writer and returns the journal
// bytes it produced.
func reframe(t *testing.T, records [][]byte) []byte {
	t.Helper()
	mem := errfs.NewMem()
	w, err := Create("j", Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := mem.ReadFile("j/" + journalFile)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
