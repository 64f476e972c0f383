// Package fsatomic publishes output artifacts atomically: content is
// staged in a hidden temporary file in the destination directory, fsync'd,
// and renamed over the final path. A crash at any point leaves either the
// previous artifact or no artifact — never a torn one. Every result file
// this repository ships (exports, session files, datasets, metrics
// snapshots, translated scripts) goes through this package; the atomicwrite
// analyzer in internal/lint enforces it.
//
// Append streams whose partial content is valuable after a crash — trace
// logs, the runlog write-ahead journal — are the deliberate exception:
// rename-on-close would lose exactly the bytes a crash investigation needs.
//
// All I/O goes through an errfs.FS (the *FS constructors; the plain ones
// use the passthrough errfs.OS()), so storage faults can be injected and
// crash states enumerated; see internal/errfs and internal/errfs/crashpoint.
package fsatomic

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/joda-explore/betze/internal/errfs"
)

// File stages writes for one destination path. Write into it, then either
// Commit (fsync + atomic rename into place) or Close (discard the staged
// content). Close after Commit is a no-op, so `defer f.Close()` composes
// with an explicit Commit on the success path.
type File struct {
	fsys      errfs.FS
	f         errfs.File
	path      string // final destination
	tmp       string // staging file, same directory
	perm      os.FileMode
	committed bool
	closed    bool
}

// Create stages a new artifact for path with permissions 0o644.
func Create(path string) (*File, error) {
	return createFS(errfs.OS(), path, 0o644)
}

// CreateFS is Create over an explicit filesystem.
func CreateFS(fsys errfs.FS, path string) (*File, error) {
	return createFS(fsys, path, 0o644)
}

// createFS stages a new artifact for path with the given final mode.
func createFS(fsys errfs.FS, path string, perm os.FileMode) (*File, error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := fsys.CreateTemp(dir, "."+base+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("fsatomic: staging %s: %w", path, err)
	}
	return &File{fsys: fsys, f: tmp, path: path, tmp: tmp.Name(), perm: perm}, nil
}

// Write appends to the staged content. A write error aborts the staging:
// the temporary file is removed and the File is closed, so a partial
// artifact can never be committed afterwards.
func (w *File) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("fsatomic: write to %s after close", w.path)
	}
	n, err := w.f.Write(p)
	if err != nil {
		w.abort()
		return n, fmt.Errorf("fsatomic: writing %s: %w", w.path, err)
	}
	return n, nil
}

// Commit durably publishes the staged content under the destination path:
// fsync the staging file, fix its mode, rename it into place, and fsync the
// directory so the rename itself survives a crash.
func (w *File) Commit() error {
	if w.committed {
		return nil
	}
	if w.closed {
		return fmt.Errorf("fsatomic: commit of %s after close", w.path)
	}
	if err := w.f.Sync(); err != nil {
		w.abort()
		return fmt.Errorf("fsatomic: syncing %s: %w", w.path, err)
	}
	if err := w.f.Chmod(w.perm); err != nil {
		w.abort()
		return fmt.Errorf("fsatomic: chmod %s: %w", w.path, err)
	}
	if err := w.f.Close(); err != nil {
		w.closed = true
		w.fsys.Remove(w.tmp)
		return fmt.Errorf("fsatomic: closing staged %s: %w", w.path, err)
	}
	w.closed = true
	if err := w.fsys.Rename(w.tmp, w.path); err != nil {
		w.fsys.Remove(w.tmp)
		return fmt.Errorf("fsatomic: publishing %s: %w", w.path, err)
	}
	w.committed = true
	dir := filepath.Dir(w.path)
	if err := w.fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("fsatomic: syncing dir %s: %w", dir, err)
	}
	return nil
}

// Close discards the staged content unless Commit already published it.
func (w *File) Close() error {
	if w.committed || w.closed {
		return nil
	}
	w.abort()
	return nil
}

func (w *File) abort() {
	w.f.Close()
	w.closed = true
	w.fsys.Remove(w.tmp)
}

// WriteFile atomically replaces path with data, the os.WriteFile of this
// package.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	return WriteFileFS(errfs.OS(), path, data, perm)
}

// WriteFileFS is WriteFile over an explicit filesystem.
func WriteFileFS(fsys errfs.FS, path string, data []byte, perm os.FileMode) error {
	f, err := createFS(fsys, path, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Commit()
}
