package errfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
)

// ErrInjected marks every error produced by a Faulty filesystem, so tests
// can tell injected faults from genuine bugs.
var ErrInjected = errors.New("errfs: injected fault")

// Fault enumerates the storage faults a Faulty filesystem can inject.
type Fault int

const (
	// FaultNone injects nothing.
	FaultNone Fault = iota
	// FaultENOSPC writes only half the buffer, then fails with ENOSPC.
	FaultENOSPC
	// FaultShortWrite writes only half the buffer, then fails with
	// io.ErrShortWrite.
	FaultShortWrite
	// FaultReadErr fails a read with EIO.
	FaultReadErr
	// FaultSyncFail skips the fsync and reports EIO — the kernel may have
	// dropped dirty pages, so callers must not ack past it.
	FaultSyncFail
	// FaultSyncLost skips the fsync but reports success — a lying disk.
	FaultSyncLost
	// FaultRenameErr fails a rename with EIO without moving anything.
	FaultRenameErr
	// FaultDirSyncLost skips a directory fsync but reports success.
	FaultDirSyncLost
)

// String names the fault for reports.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultENOSPC:
		return "enospc"
	case FaultShortWrite:
		return "short-write"
	case FaultReadErr:
		return "read-eio"
	case FaultSyncFail:
		return "sync-fail"
	case FaultSyncLost:
		return "sync-lost"
	case FaultRenameErr:
		return "rename-eio"
	case FaultDirSyncLost:
		return "dirsync-lost"
	}
	return "unknown"
}

// injectedErr wraps both ErrInjected and the os-level cause, so errors.Is
// matches either.
type injectedErr struct {
	fault Fault
	cause error
}

func (e *injectedErr) Error() string {
	return fmt.Sprintf("errfs: injected %s: %v", e.fault, e.cause)
}

func (e *injectedErr) Unwrap() []error { return []error{ErrInjected, e.cause} }

func injected(fault Fault, cause error) error {
	return &injectedErr{fault: fault, cause: cause}
}

// Plan injects faults at precise operation counts: Plan{17: FaultENOSPC}
// fails the 17th faultable operation. Operations count from 0 in the order
// write, read, sync, rename, syncdir calls reach the Faulty wrapper.
type Plan map[int64]Fault

// Injection records one injected fault, for reports and assertions.
type Injection struct {
	N     int64
	Op    string
	Path  string
	Fault Fault
}

// Faulty wraps an FS and injects the faults its Plan names. The operation
// counter is global across the wrapped filesystem, so a Plan pins faults to
// exact points in a workload.
type Faulty struct {
	inner FS
	plan  Plan

	mu  sync.Mutex
	n   int64
	log []Injection
}

// NewFaulty wraps inner with the given fault plan.
func NewFaulty(inner FS, plan Plan) *Faulty {
	return &Faulty{inner: inner, plan: plan}
}

// Injections returns a copy of the faults injected so far.
func (f *Faulty) Injections() []Injection {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Injection(nil), f.log...)
}

// OpCount returns how many faultable operations have been observed.
func (f *Faulty) OpCount() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// decide advances the operation counter and returns the planned fault.
func (f *Faulty) decide(op, path string) Fault {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.n
	f.n++
	fault := f.plan[n]
	if fault != FaultNone {
		f.log = append(f.log, Injection{N: n, Op: op, Path: path, Fault: fault})
	}
	return fault
}

// OpenFile implements FS.
func (f *Faulty) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file, path: name}, nil
}

// CreateTemp implements FS.
func (f *Faulty) CreateTemp(dir, pattern string) (File, error) {
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file, path: file.Name()}, nil
}

// Rename implements FS.
func (f *Faulty) Rename(oldpath, newpath string) error {
	if f.decide("rename", oldpath) == FaultRenameErr {
		return injected(FaultRenameErr, &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: syscall.EIO})
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove implements FS.
func (f *Faulty) Remove(name string) error { return f.inner.Remove(name) }

// MkdirAll implements FS.
func (f *Faulty) MkdirAll(path string, perm os.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}

// ReadFile implements FS.
func (f *Faulty) ReadFile(name string) ([]byte, error) {
	if f.decide("read", name) == FaultReadErr {
		return nil, injected(FaultReadErr, &os.PathError{Op: "read", Path: name, Err: syscall.EIO})
	}
	return f.inner.ReadFile(name)
}

// SyncDir implements FS.
func (f *Faulty) SyncDir(dir string) error {
	if f.decide("syncdir", dir) == FaultDirSyncLost {
		// Lie: report success without the barrier.
		return nil
	}
	return f.inner.SyncDir(dir)
}

// faultFile wraps a file handle with fault injection on read/write/sync.
type faultFile struct {
	fs    *Faulty
	inner File
	path  string
}

func (h *faultFile) Write(p []byte) (int, error) {
	switch fault := h.fs.decide("write", h.path); fault {
	case FaultENOSPC:
		n, _ := h.inner.Write(p[:len(p)/2])
		return n, injected(fault, &os.PathError{Op: "write", Path: h.path, Err: syscall.ENOSPC})
	case FaultShortWrite:
		n, _ := h.inner.Write(p[:len(p)/2])
		return n, injected(fault, io.ErrShortWrite)
	}
	return h.inner.Write(p)
}

func (h *faultFile) Read(p []byte) (int, error) {
	if h.fs.decide("read", h.path) == FaultReadErr {
		return 0, injected(FaultReadErr, &os.PathError{Op: "read", Path: h.path, Err: syscall.EIO})
	}
	return h.inner.Read(p)
}

func (h *faultFile) Sync() error {
	switch fault := h.fs.decide("sync", h.path); fault {
	case FaultSyncFail:
		return injected(fault, &os.PathError{Op: "sync", Path: h.path, Err: syscall.EIO})
	case FaultSyncLost:
		// Lie: report success without syncing.
		return nil
	}
	return h.inner.Sync()
}

func (h *faultFile) Seek(offset int64, whence int) (int64, error) {
	return h.inner.Seek(offset, whence)
}
func (h *faultFile) Truncate(size int64) error    { return h.inner.Truncate(size) }
func (h *faultFile) Chmod(mode os.FileMode) error { return h.inner.Chmod(mode) }
func (h *faultFile) Name() string                 { return h.inner.Name() }
func (h *faultFile) Close() error                 { return h.inner.Close() }
