package fsatomic

import (
	"errors"
	"io"
	"syscall"
	"testing"

	"github.com/joda-explore/betze/internal/errfs"
)

// TestWriteFileFaults drives WriteFileFS into each storage fault the shim
// can inject and checks the atomicity contract: on any failure the final
// name never appears (and an existing artifact is never replaced), and the
// staging temp file is cleaned up.
func TestWriteFileFaults(t *testing.T) {
	cases := []struct {
		name    string
		plan    errfs.Plan // WriteFileFS op layout: 0 write, 1 sync, 2 rename, 3 syncdir
		wantErr error
	}{
		{"enospc-mid-write", errfs.Plan{0: errfs.FaultENOSPC}, syscall.ENOSPC},
		{"short-write", errfs.Plan{0: errfs.FaultShortWrite}, io.ErrShortWrite},
		{"fsync-failure", errfs.Plan{1: errfs.FaultSyncFail}, syscall.EIO},
		{"rename-failure", errfs.Plan{2: errfs.FaultRenameErr}, syscall.EIO},
	}
	for _, tc := range cases {
		for _, preexisting := range []bool{false, true} {
			name := tc.name
			if preexisting {
				name += "-over-existing"
			}
			t.Run(name, func(t *testing.T) {
				mem := errfs.NewMem()
				if err := mem.MkdirAll("out", 0o755); err != nil {
					t.Fatal(err)
				}
				const final = "out/result.json"
				old := []byte(`{"old":true}`)
				if preexisting {
					if err := WriteFileFS(mem, final, old, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				// The plan counts ops from here on: wrap AFTER the setup so
				// the indices are the same with and without a pre-existing
				// artifact.
				faulty := errfs.NewFaulty(mem, tc.plan)
				err := WriteFileFS(faulty, final, []byte(`{"new":true}`), 0o644)
				if err == nil {
					t.Fatal("want an injected failure")
				}
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("want %v, got %v", tc.wantErr, err)
				}
				if !errors.Is(err, errfs.ErrInjected) {
					t.Fatalf("injected fault not marked: %v", err)
				}
				// The final name never shows the failed content.
				data, rerr := mem.ReadFile(final)
				if preexisting {
					if rerr != nil || string(data) != string(old) {
						t.Fatalf("existing artifact disturbed: %q, %v", data, rerr)
					}
				} else if rerr == nil {
					t.Fatalf("final name appeared despite the failure: %q", data)
				}
				// The staging temp is cleaned up.
				if left := leftovers(mem, final); len(left) != 0 {
					t.Fatalf("staging garbage left behind: %v", left)
				}
			})
		}
	}
}

// TestCommitAfterFailedWriteRefused: a fault during Write must not leave a
// committable File behind — committing a partial artifact is exactly the
// torn state the package exists to prevent.
func TestCommitAfterFailedWriteRefused(t *testing.T) {
	mem := errfs.NewMem()
	if err := mem.MkdirAll("out", 0o755); err != nil {
		t.Fatal(err)
	}
	faulty := errfs.NewFaulty(mem, errfs.Plan{0: errfs.FaultShortWrite})
	f, err := CreateFS(faulty, "out/a.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("0123456789")); err == nil {
		t.Fatal("want injected short write")
	}
	if err := f.Commit(); err == nil {
		t.Fatal("commit after failed write must be refused")
	}
	if _, err := mem.ReadFile("out/a.json"); err == nil {
		t.Fatal("partial artifact published")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteFileFSCleanPath: the zero-fault path publishes atomically and
// leaves no staging residue.
func TestWriteFileFSCleanPath(t *testing.T) {
	mem := errfs.NewMem()
	if err := mem.MkdirAll("out", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileFS(mem, "out/a.json", []byte("payload"), 0o600); err != nil {
		t.Fatal(err)
	}
	data, err := mem.ReadFile("out/a.json")
	if err != nil || string(data) != "payload" {
		t.Fatalf("got %q, %v", data, err)
	}
	if left := leftovers(mem, "out/a.json"); len(left) != 0 {
		t.Fatalf("staging residue: %v", left)
	}
}

// leftovers lists the files ever created on mem that still exist, other
// than keep.
func leftovers(mem *errfs.Mem, keep string) []string {
	var out []string
	for _, op := range mem.Trace() {
		if op.Kind != errfs.OpCreate || op.Path == keep {
			continue
		}
		if _, err := mem.ReadFile(op.Path); err == nil {
			out = append(out, op.Path)
		}
	}
	return out
}
