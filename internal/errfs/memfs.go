package errfs

import (
	"fmt"
	"io"
	"os"
	"path"
	"path/filepath"
	"strings"
	"sync"
)

// TraceKind enumerates the mutating operations a Mem filesystem records.
type TraceKind int

const (
	// OpMkdir creates a directory (Path).
	OpMkdir TraceKind = iota
	// OpCreate creates a new empty file (Path, Node).
	OpCreate
	// OpWrite writes Data at Off into Node.
	OpWrite
	// OpTruncate cuts Node to Size bytes.
	OpTruncate
	// OpFsync makes Node's content durable.
	OpFsync
	// OpRename moves Path to Path2 (Node is the moved file).
	OpRename
	// OpRemove unlinks Path (Node).
	OpRemove
	// OpSyncDir makes the pending creates/renames/removes under Path durable.
	OpSyncDir
)

// String names the op kind for reports.
func (k TraceKind) String() string {
	switch k {
	case OpMkdir:
		return "mkdir"
	case OpCreate:
		return "create"
	case OpWrite:
		return "write"
	case OpTruncate:
		return "truncate"
	case OpFsync:
		return "fsync"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpSyncDir:
		return "syncdir"
	}
	return "unknown"
}

// TraceOp is one recorded mutating operation. Node identifies the file
// independent of its name, so a rename does not orphan subsequent writes
// through a still-open handle.
type TraceOp struct {
	Kind  TraceKind
	Path  string
	Path2 string // rename destination
	Node  int
	Off   int64  // write offset
	Data  []byte // write payload (private copy)
	Size  int64  // truncate size
}

// memNode is one file's content, shared by every handle and name pointing
// at it.
type memNode struct {
	id   int
	data []byte
}

// Mem is an in-memory FS that records every mutating operation. It is safe
// for concurrent use. The zero value is not usable; call NewMem.
type Mem struct {
	mu     sync.Mutex
	dirs   map[string]bool
	files  map[string]*memNode
	nextID int
	tmpSeq int
	trace  []TraceOp
}

// NewMem returns an empty in-memory filesystem with the root directory "."
// present.
func NewMem() *Mem {
	return &Mem{
		dirs:  map[string]bool{".": true},
		files: make(map[string]*memNode),
	}
}

// clean normalises a path to the slash-separated, dot-rooted form used as
// map key.
func clean(name string) string {
	return path.Clean(filepath.ToSlash(name))
}

// Trace returns a copy of the recorded operation trace.
func (m *Mem) Trace() []TraceOp {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]TraceOp(nil), m.trace...)
}

// TraceLen returns the current trace length — the ack cursor callers note
// after a durability-claiming call returns, so a crash point can be compared
// against "what was acknowledged by then".
func (m *Mem) TraceLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.trace)
}

func (m *Mem) record(op TraceOp) {
	m.trace = append(m.trace, op)
}

func pathErr(op, name string, err error) error {
	return &os.PathError{Op: op, Path: name, Err: err}
}

// OpenFile implements FS.
func (m *Mem) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := clean(name)
	if m.dirs[p] {
		return nil, pathErr("open", name, fmt.Errorf("is a directory"))
	}
	if dir := path.Dir(p); !m.dirs[dir] {
		return nil, pathErr("open", name, os.ErrNotExist)
	}
	node, ok := m.files[p]
	switch {
	case !ok && flag&os.O_CREATE == 0:
		return nil, pathErr("open", name, os.ErrNotExist)
	case ok && flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0:
		return nil, pathErr("open", name, os.ErrExist)
	case !ok:
		node = &memNode{id: m.nextID}
		m.nextID++
		m.files[p] = node
		m.record(TraceOp{Kind: OpCreate, Path: p, Node: node.id})
	case flag&os.O_TRUNC != 0:
		node.data = nil
		m.record(TraceOp{Kind: OpTruncate, Path: p, Node: node.id, Size: 0})
	}
	writable := flag&(os.O_WRONLY|os.O_RDWR) != 0
	return &memHandle{fs: m, node: node, name: p, writable: writable}, nil
}

// CreateTemp implements FS with os.CreateTemp's "*"-pattern semantics.
func (m *Mem) CreateTemp(dir, pattern string) (File, error) {
	m.mu.Lock()
	d := clean(dir)
	if !m.dirs[d] {
		m.mu.Unlock()
		return nil, pathErr("createtemp", dir, os.ErrNotExist)
	}
	prefix, suffix, ok := strings.Cut(pattern, "*")
	if !ok {
		prefix, suffix = pattern, ""
	}
	m.tmpSeq++
	name := path.Join(d, fmt.Sprintf("%s%09d%s", prefix, m.tmpSeq, suffix))
	m.mu.Unlock()
	return m.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
}

// Rename implements FS. Only files are renamed (the stack never renames
// directories).
func (m *Mem) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	op, np := clean(oldpath), clean(newpath)
	node, ok := m.files[op]
	if !ok {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: os.ErrNotExist}
	}
	if !m.dirs[path.Dir(np)] {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: os.ErrNotExist}
	}
	delete(m.files, op)
	m.files[np] = node
	m.record(TraceOp{Kind: OpRename, Path: op, Path2: np, Node: node.id})
	return nil
}

// Remove implements FS for files (the stack never removes directories).
func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := clean(name)
	node, ok := m.files[p]
	if !ok {
		return pathErr("remove", name, os.ErrNotExist)
	}
	delete(m.files, p)
	m.record(TraceOp{Kind: OpRemove, Path: p, Node: node.id})
	return nil
}

// MkdirAll implements FS.
func (m *Mem) MkdirAll(dir string, perm os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := clean(dir)
	if _, ok := m.files[p]; ok {
		return pathErr("mkdir", dir, fmt.Errorf("not a directory"))
	}
	var missing []string
	for q := p; !m.dirs[q]; q = path.Dir(q) {
		missing = append(missing, q)
	}
	// Parents first, as os.MkdirAll creates them.
	for i := len(missing) - 1; i >= 0; i-- {
		m.dirs[missing[i]] = true
		m.record(TraceOp{Kind: OpMkdir, Path: missing[i]})
	}
	return nil
}

// ReadFile implements FS.
func (m *Mem) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	node, ok := m.files[clean(name)]
	if !ok {
		return nil, pathErr("open", name, os.ErrNotExist)
	}
	return append([]byte(nil), node.data...), nil
}

// SyncDir implements FS: a metadata barrier making the pending creates,
// renames and removes under dir durable in the crash model.
func (m *Mem) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := clean(dir)
	if !m.dirs[p] {
		return pathErr("open", dir, os.ErrNotExist)
	}
	m.record(TraceOp{Kind: OpSyncDir, Path: p})
	return nil
}

// memHandle is one open file descriptor.
type memHandle struct {
	fs       *Mem
	node     *memNode
	name     string
	writable bool
	off      int64
	closed   bool
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, pathErr("read", h.name, os.ErrClosed)
	}
	if h.off >= int64(len(h.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.node.data[h.off:])
	h.off += int64(n)
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, pathErr("write", h.name, os.ErrClosed)
	}
	if !h.writable {
		return 0, pathErr("write", h.name, fmt.Errorf("read-only handle"))
	}
	end := h.off + int64(len(p))
	if grow := end - int64(len(h.node.data)); grow > 0 {
		h.node.data = append(h.node.data, make([]byte, grow)...)
	}
	copy(h.node.data[h.off:end], p)
	h.fs.record(TraceOp{
		Kind: OpWrite, Path: h.name, Node: h.node.id,
		Off: h.off, Data: append([]byte(nil), p...),
	})
	h.off = end
	return len(p), nil
}

func (h *memHandle) Seek(offset int64, whence int) (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, pathErr("seek", h.name, os.ErrClosed)
	}
	switch whence {
	case io.SeekStart:
		h.off = offset
	case io.SeekCurrent:
		h.off += offset
	case io.SeekEnd:
		h.off = int64(len(h.node.data)) + offset
	default:
		return 0, pathErr("seek", h.name, fmt.Errorf("bad whence %d", whence))
	}
	if h.off < 0 {
		return 0, pathErr("seek", h.name, fmt.Errorf("negative offset"))
	}
	return h.off, nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return pathErr("sync", h.name, os.ErrClosed)
	}
	h.fs.record(TraceOp{Kind: OpFsync, Path: h.name, Node: h.node.id})
	return nil
}

func (h *memHandle) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return pathErr("truncate", h.name, os.ErrClosed)
	}
	if size < 0 || size > int64(len(h.node.data)) {
		return pathErr("truncate", h.name, fmt.Errorf("size %d out of range", size))
	}
	h.node.data = h.node.data[:size]
	h.fs.record(TraceOp{Kind: OpTruncate, Path: h.name, Node: h.node.id, Size: size})
	return nil
}

func (h *memHandle) Chmod(mode os.FileMode) error { return nil }

func (h *memHandle) Name() string { return h.name }

func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return pathErr("close", h.name, os.ErrClosed)
	}
	h.closed = true
	return nil
}
