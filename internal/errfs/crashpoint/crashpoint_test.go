package crashpoint

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"github.com/joda-explore/betze/internal/errfs"
)

// write is a test helper: create/truncate a file with content.
func write(t *testing.T, fs *errfs.Mem, path string, data []byte) {
	t.Helper()
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMaterializeDropUnsynced(t *testing.T) {
	fs := errfs.NewMem()
	if err := fs.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	write(t, fs, "d/a", []byte("hello"))
	// Neither the file content nor the directory entry was synced: a
	// pessimistic crash at the end of the trace loses the file entirely.
	trace := fs.Trace()
	mem, err := Materialize(trace, Point{Index: len(trace), Policy: DropUnsynced})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mem.ReadFile("d/a"); err == nil {
		t.Fatal("unsynced file survived a drop-unsynced crash")
	}

	// Now fsync the file and sync the directory: both survive.
	f, err := fs.OpenFile("d/a", os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := fs.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	trace = fs.Trace()
	mem, err = Materialize(trace, Point{Index: len(trace), Policy: DropUnsynced})
	if err != nil {
		t.Fatal(err)
	}
	got, err := mem.ReadFile("d/a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("synced content lost: got %q", got)
	}
}

func TestMaterializeRenameBarrier(t *testing.T) {
	fs := errfs.NewMem()
	if err := fs.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	write(t, fs, "d/tmp", []byte("artifact"))
	f, _ := fs.OpenFile("d/tmp", os.O_WRONLY, 0o644)
	f.Sync()
	f.Close()
	fs.SyncDir("d")
	if err := fs.Rename("d/tmp", "d/final"); err != nil {
		t.Fatal(err)
	}
	// Rename issued but the directory not re-synced: pessimistically the
	// old entry is still what survives.
	trace := fs.Trace()
	mem, err := Materialize(trace, Point{Index: len(trace), Policy: DropUnsynced})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mem.ReadFile("d/final"); err == nil {
		t.Fatal("un-dir-synced rename survived a drop-unsynced crash")
	}
	if got, err := mem.ReadFile("d/tmp"); err != nil || !bytes.Equal(got, []byte("artifact")) {
		t.Fatalf("pre-rename entry lost: %q, %v", got, err)
	}
	// After the dir sync the rename is durable.
	fs.SyncDir("d")
	trace = fs.Trace()
	mem, err = Materialize(trace, Point{Index: len(trace), Policy: DropUnsynced})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := mem.ReadFile("d/final"); err != nil || !bytes.Equal(got, []byte("artifact")) {
		t.Fatalf("dir-synced rename lost: %q, %v", got, err)
	}
	if _, err := mem.ReadFile("d/tmp"); err == nil {
		t.Fatal("renamed-away entry still present after dir sync")
	}
}

func TestMaterializeKeepAll(t *testing.T) {
	fs := errfs.NewMem()
	fs.MkdirAll("d", 0o755)
	write(t, fs, "d/a", []byte("x"))
	trace := fs.Trace()
	mem, err := Materialize(trace, Point{Index: len(trace), Policy: KeepAll})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := mem.ReadFile("d/a"); err != nil || !bytes.Equal(got, []byte("x")) {
		t.Fatalf("keep-all lost data: %q, %v", got, err)
	}
}

func TestMaterializeTornDeterministic(t *testing.T) {
	fs := errfs.NewMem()
	fs.MkdirAll("d", 0o755)
	write(t, fs, "d/a", bytes.Repeat([]byte("abcdefgh"), 16))
	trace := fs.Trace()
	pt := Point{Index: len(trace), Policy: Torn, Seed: 42}
	m1, err := Materialize(trace, pt)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Materialize(trace, pt)
	if err != nil {
		t.Fatal(err)
	}
	d1, e1 := m1.ReadFile("d/a")
	d2, e2 := m2.ReadFile("d/a")
	if (e1 == nil) != (e2 == nil) || !bytes.Equal(d1, d2) {
		t.Fatalf("torn materialization not deterministic: %q/%v vs %q/%v", d1, e1, d2, e2)
	}
}

// TestFuzzWorkloadsPass enumerates every crash point of each workload's
// trace under every policy, at the seeds that vary the Torn choices, and
// pins the enumeration's size so a shrunken workload cannot pass quietly.
func TestFuzzWorkloadsPass(t *testing.T) {
	for _, tc := range []struct {
		name   string
		run    func(int64) Report
		points int
	}{
		{"runlog", FuzzRunlog, 219},
		{"fsatomic", FuzzFsatomic, 51},
		{"jobqueue", FuzzJobqueue, 123},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{1, 7, 11} {
				rep := tc.run(seed)
				if rep.Points < tc.points {
					t.Errorf("seed %d: %d crash points enumerated, want >= %d", seed, rep.Points, tc.points)
				}
				for _, v := range rep.Violations {
					t.Errorf("seed %d: %s", seed, v)
				}
			}
		})
	}
}

func TestFuzzDeterministic(t *testing.T) {
	a, b := FuzzRunlog(7), FuzzRunlog(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different reports: %d/%d points, %d/%d violations",
			a.Points, b.Points, len(a.Violations), len(b.Violations))
	}
}
