package errfs

import (
	"errors"
	"io"
	"os"
	"syscall"
	"testing"
)

func TestMemBasics(t *testing.T) {
	m := NewMem()
	if err := m.MkdirAll("a/b", 0o755); err != nil {
		t.Fatal(err)
	}
	// Parent directory is enforced.
	if _, err := m.OpenFile("missing/f", os.O_CREATE|os.O_WRONLY, 0o644); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want ErrNotExist for missing parent, got %v", err)
	}
	f, err := m.OpenFile("a/b/f", os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(5); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := m.ReadFile("a/b/f")
	if err != nil || string(data) != "hello" {
		t.Fatalf("got %q, %v", data, err)
	}
	if _, err := m.ReadFile("a/b/missing"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
	// O_EXCL refuses an existing file, as runlog.Create relies on.
	if _, err := m.OpenFile("a/b/f", os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644); !errors.Is(err, os.ErrExist) {
		t.Fatalf("want ErrExist for O_EXCL over an existing file, got %v", err)
	}
}

// TestMemSameFileTracksRename: a rename moves the file, not a copy of it —
// writes through a handle opened before the rename land under the new name.
func TestMemSameFileTracksRename(t *testing.T) {
	m := NewMem()
	f, err := m.OpenFile("x", os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("before "))
	if err := m.Rename("x", "y"); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("after"))
	f.Close()
	if data, err := m.ReadFile("y"); err != nil || string(data) != "before after" {
		t.Fatalf("renamed file holds %q, %v", data, err)
	}
	if _, err := m.ReadFile("x"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("old name survived the rename: %v", err)
	}
}

func TestMemReadAtAndSeek(t *testing.T) {
	m := NewMem()
	f, _ := m.OpenFile("f", os.O_CREATE|os.O_RDWR, 0o644)
	f.Write([]byte("0123456789"))
	if off, err := f.Seek(-2, io.SeekEnd); err != nil || off != 8 {
		t.Fatalf("Seek: %d %v", off, err)
	}
	f.Write([]byte("XY"))
	f.Close()
	data, _ := m.ReadFile("f")
	if string(data) != "01234567XY" {
		t.Fatalf("got %q", data)
	}
}

func TestMemTraceRecordsMutations(t *testing.T) {
	m := NewMem()
	m.MkdirAll("d", 0o755)
	f, _ := m.OpenFile("d/f", os.O_CREATE|os.O_WRONLY, 0o644)
	buf := []byte("abc")
	f.Write(buf)
	f.Sync()
	f.Close()
	m.Rename("d/f", "d/g")
	m.SyncDir("d")
	m.Remove("d/g")
	kinds := []TraceKind{}
	for _, op := range m.Trace() {
		kinds = append(kinds, op.Kind)
	}
	want := []TraceKind{OpMkdir, OpCreate, OpWrite, OpFsync, OpRename, OpSyncDir, OpRemove}
	if len(kinds) != len(want) {
		t.Fatalf("trace %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("trace %v, want %v", kinds, want)
		}
	}
	// The recorded payload is a private copy, not an alias of the buffer
	// the writer may go on to reuse.
	buf[0] = 'Z'
	if m.Trace()[2].Data[0] != 'a' {
		t.Fatal("trace payload aliases caller buffer")
	}
}

func TestFaultyPlanPinpointsOps(t *testing.T) {
	m := NewMem()
	faulty := NewFaulty(m, Plan{1: FaultENOSPC})
	f, err := faulty.OpenFile("f", os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("ok")); err != nil { // op 0
		t.Fatal(err)
	}
	n, err := f.Write([]byte("fail")) // op 1
	if !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected ENOSPC, got %v", err)
	}
	if n != 2 {
		t.Fatalf("ENOSPC must be a partial write of half the buffer, wrote %d", n)
	}
	if _, err := f.Write([]byte("ok2")); err != nil { // op 2
		t.Fatal(err)
	}
	inj := faulty.Injections()
	if len(inj) != 1 || inj[0].N != 1 || inj[0].Fault != FaultENOSPC {
		t.Fatalf("injections: %+v", inj)
	}
}

func TestFaultySyncLostSkipsInnerSync(t *testing.T) {
	m := NewMem()
	faulty := NewFaulty(m, Plan{0: FaultSyncLost})
	f, _ := faulty.OpenFile("f", os.O_CREATE|os.O_WRONLY, 0o644)
	if err := f.Sync(); err != nil { // lying disk: reports success
		t.Fatalf("sync-lost must report success, got %v", err)
	}
	for _, op := range m.Trace() {
		if op.Kind == OpFsync {
			t.Fatal("sync-lost leaked a real fsync into the trace")
		}
	}
}

func TestChanceRangeAndDeterminism(t *testing.T) {
	for i := 0; i < 1000; i++ {
		v := Chance(7, "kind", "op", i)
		if v < 0 || v >= 1 {
			t.Fatalf("Chance out of [0,1): %v", v)
		}
		if v != Chance(7, "kind", "op", i) {
			t.Fatal("Chance not deterministic")
		}
	}
	if Chance(1, "k", "o", 0) == Chance(2, "k", "o", 0) {
		t.Fatal("seed does not perturb Chance")
	}
}

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	fs := OS()
	f, err := fs.OpenFile(dir+"/f", os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile(dir + "/f")
	if err != nil || string(data) != "x" {
		t.Fatalf("got %q, %v", data, err)
	}
}
