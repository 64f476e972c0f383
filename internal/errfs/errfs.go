// Package errfs abstracts the filesystem operations the durability stack
// (internal/runlog, internal/fsatomic, internal/jobqueue) performs, so that
// storage faults — short writes, ENOSPC, EIO on read, failed or silently
// dropped fsync, torn renames, omitted directory fsync — can be injected
// deterministically and crash states can be enumerated from a recorded
// operation trace.
//
// Three implementations ship:
//
//   - OS() is the passthrough production default: every method delegates to
//     the os package, so threading errfs through a package changes nothing
//     in production.
//   - NewMem() is a hermetic in-memory filesystem that additionally records
//     every mutating operation (see TraceOp); the crashpoint sub-package
//     replays such a trace to materialise the durable state a power loss at
//     any point would have left behind.
//   - NewFaulty(inner, plan) wraps any FS and injects the faults a Plan
//     names at precise operation counts.
//
// The seeded decision hash (Chance) is shared with internal/faultsim's
// engine-fault schedule and with crashpoint's torn-write choices.
package errfs

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"os"
)

// File is the subset of *os.File the durability stack uses.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Seek(offset int64, whence int) (int64, error)
	Sync() error
	Truncate(size int64) error
	Chmod(mode os.FileMode) error
	Name() string
}

// FS is the filesystem interface all durability-critical I/O goes through.
// Implementations must return errors that satisfy errors.Is against the os
// sentinel errors (os.ErrNotExist, os.ErrExist) where the os package would.
type FS interface {
	// OpenFile opens a file with os.OpenFile semantics for the flags the
	// stack uses (O_RDONLY, O_CREATE, O_EXCL, O_WRONLY, O_RDWR, O_TRUNC).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// CreateTemp creates a uniquely-named temporary file in dir with
	// os.CreateTemp pattern semantics.
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(path string, perm os.FileMode) error
	// ReadFile reads a whole file.
	ReadFile(name string) ([]byte, error)
	// SyncDir fsyncs a directory, making creates/renames/removes inside it
	// durable. Platforms refusing directory fsync degrade to best-effort.
	SyncDir(dir string) error
}

// osFS is the passthrough production filesystem.
type osFS struct{}

// OS returns the passthrough filesystem backed by the os package. It is
// stateless; every call site may request its own.
func OS() FS { return osFS{} }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Directory fsync is best-effort (EINVAL on some filesystems).
	d.Sync()
	return d.Close()
}

// Chance maps (seed, kind, op, attempt) to a uniform float in [0, 1) — the
// pure decision function faultsim's fault schedule and crashpoint's Torn
// policy use, byte-compatible with faultsim's original hash so existing
// fault schedules are unchanged.
func Chance(seed int64, kind, op string, attempt int) float64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	h.Write(buf[:])
	io.WriteString(h, kind)
	io.WriteString(h, op)
	binary.LittleEndian.PutUint64(buf[:], uint64(attempt))
	h.Write(buf[:])
	// 53 mantissa bits give a uniform float in [0, 1).
	return float64(h.Sum64()>>11) / float64(1<<53)
}
