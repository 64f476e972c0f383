// Package crashpoint enumerates power-loss states from a recorded errfs.Mem
// operation trace and materialises each as a fresh filesystem, so recovery
// code can be re-run against every state a real crash could have left
// behind (the ALICE/CrashMonkey methodology, scaled to this stack).
//
// The durability model is the POSIX contract the stack is written against:
//
//   - File content becomes durable at fsync(file); writes and truncates
//     after the last fsync are pending and may be lost (or, under the Torn
//     policy, partially applied — the kernel writes dirty pages back in its
//     own time, possibly tearing the final write mid-buffer).
//   - Directory entries (create, rename, remove) become durable at
//     fsync(parent dir); entry changes after the last dir-sync are pending,
//     applied as an ordered prefix (journaled filesystems preserve metadata
//     order; what they do not promise is how much of the tail survives).
//   - Directories themselves are treated as durable at creation — the stack
//     creates its directories once, up front, and their loss is not an
//     interesting crash state.
//
// A crash Point selects how many trace operations had been issued and which
// survival policy applies to the pending tail; Materialize replays the
// model and builds the surviving files into a new errfs.Mem, on which the
// caller runs recovery (runlog.RecoverFS, jobqueue.Open, a harness resume)
// and asserts its invariants.
package crashpoint

import (
	"fmt"
	"os"
	"path"

	"github.com/joda-explore/betze/internal/errfs"
)

// Policy selects how the pending (not-yet-synced) tail of the trace is
// treated at the crash.
type Policy int

const (
	// DropUnsynced is the pessimistic policy: only fsync'd content and
	// dir-sync'd entries survive. Everything the stack acked must still be
	// there.
	DropUnsynced Policy = iota
	// Torn applies a seeded prefix of each file's pending writes (possibly
	// cutting the last one mid-buffer) and of each directory's pending
	// entry changes — the kernel's background writeback caught mid-flight.
	Torn
	// KeepAll is the optimistic policy: the whole issued prefix survives.
	// Recovery must obviously succeed on it; it catches invariant checks
	// that are themselves wrong.
	KeepAll
)

// String names the policy for reports.
func (p Policy) String() string {
	switch p {
	case DropUnsynced:
		return "drop-unsynced"
	case Torn:
		return "torn"
	case KeepAll:
		return "keep-all"
	}
	return "unknown"
}

// Point is one simulated power loss: the first Index trace operations were
// issued, then the machine died; Policy decides the fate of the un-synced
// tail (Seed parameterises Torn's choices).
type Point struct {
	Index  int
	Policy Policy
	Seed   int64
}

// String identifies the point in reports.
func (p Point) String() string {
	return fmt.Sprintf("op %d/%s", p.Index, p.Policy)
}

// Points enumerates the crash points to check for a trace: every operation
// index under every policy.
func Points(trace []errfs.TraceOp, seed int64) []Point {
	out := make([]Point, 0, 3*(len(trace)+1))
	for i := 0; i <= len(trace); i++ {
		out = append(out,
			Point{Index: i, Policy: DropUnsynced, Seed: seed},
			Point{Index: i, Policy: Torn, Seed: seed},
			Point{Index: i, Policy: KeepAll, Seed: seed},
		)
	}
	return out
}

// dataOp is a pending (un-fsync'd) content change.
type dataOp struct {
	trunc bool
	size  int64
	off   int64
	data  []byte
}

// metaOp is a pending (un-dir-sync'd) directory entry change.
type metaOp struct {
	kind  errfs.TraceKind // OpCreate, OpRename, OpRemove
	path  string
	path2 string
	node  int
}

// nodeState tracks one file through the crash model.
type nodeState struct {
	durable  []byte   // content as of the last fsync
	volatile []byte   // content as issued
	pending  []dataOp // changes since the last fsync, in order
}

func (n *nodeState) apply(op dataOp) {
	if op.trunc {
		if op.size <= int64(len(n.volatile)) {
			n.volatile = n.volatile[:op.size]
		}
		return
	}
	end := op.off + int64(len(op.data))
	if grow := end - int64(len(n.volatile)); grow > 0 {
		n.volatile = append(n.volatile, make([]byte, grow)...)
	}
	copy(n.volatile[op.off:end], op.data)
}

// applyTo replays a data op onto an explicit buffer (for rebuilding the
// durable-plus-torn-prefix view).
func applyTo(buf []byte, op dataOp) []byte {
	if op.trunc {
		if op.size <= int64(len(buf)) {
			return buf[:op.size]
		}
		return buf
	}
	end := op.off + int64(len(op.data))
	if grow := end - int64(len(buf)); grow > 0 {
		buf = append(buf, make([]byte, grow)...)
	}
	copy(buf[op.off:end], op.data)
	return buf
}

// model is the crash-model state after replaying a trace prefix.
type model struct {
	nodes       map[int]*nodeState
	volNS       map[string]int      // path → node, as issued
	durNS       map[string]int      // path → node, as dir-sync'd
	pendingMeta map[string][]metaOp // dir → ordered entry changes since its last sync
	dirs        []string            // creation order
}

func newModel() *model {
	return &model{
		nodes:       make(map[int]*nodeState),
		volNS:       make(map[string]int),
		durNS:       make(map[string]int),
		pendingMeta: make(map[string][]metaOp),
	}
}

// applyMeta folds one entry change into a namespace.
func applyMeta(ns map[string]int, op metaOp) {
	switch op.kind {
	case errfs.OpCreate:
		ns[op.path] = op.node
	case errfs.OpRename:
		delete(ns, op.path)
		ns[op.path2] = op.node
	case errfs.OpRemove:
		delete(ns, op.path)
	}
}

func (m *model) step(op errfs.TraceOp) {
	switch op.Kind {
	case errfs.OpMkdir:
		m.dirs = append(m.dirs, op.Path)
	case errfs.OpCreate:
		m.nodes[op.Node] = &nodeState{}
		m.volNS[op.Path] = op.Node
		m.pendingMeta[path.Dir(op.Path)] = append(m.pendingMeta[path.Dir(op.Path)],
			metaOp{kind: errfs.OpCreate, path: op.Path, node: op.Node})
	case errfs.OpWrite:
		n := m.nodes[op.Node]
		d := dataOp{off: op.Off, data: op.Data}
		n.apply(d)
		n.pending = append(n.pending, d)
	case errfs.OpTruncate:
		n := m.nodes[op.Node]
		d := dataOp{trunc: true, size: op.Size}
		n.apply(d)
		n.pending = append(n.pending, d)
	case errfs.OpFsync:
		n := m.nodes[op.Node]
		n.durable = append([]byte(nil), n.volatile...)
		n.pending = nil
	case errfs.OpRename:
		// The stack only renames within one directory (fsatomic publish), so
		// the entry change is ordered in the destination directory's queue.
		delete(m.volNS, op.Path)
		m.volNS[op.Path2] = op.Node
		m.pendingMeta[path.Dir(op.Path2)] = append(m.pendingMeta[path.Dir(op.Path2)],
			metaOp{kind: errfs.OpRename, path: op.Path, path2: op.Path2, node: op.Node})
	case errfs.OpRemove:
		delete(m.volNS, op.Path)
		m.pendingMeta[path.Dir(op.Path)] = append(m.pendingMeta[path.Dir(op.Path)],
			metaOp{kind: errfs.OpRemove, path: op.Path, node: op.Node})
	case errfs.OpSyncDir:
		for _, mo := range m.pendingMeta[op.Path] {
			applyMeta(m.durNS, mo)
		}
		delete(m.pendingMeta, op.Path)
	}
}

// Materialize simulates a power loss at pt over the recorded trace and
// returns a fresh filesystem holding exactly what survived.
func Materialize(trace []errfs.TraceOp, pt Point) (*errfs.Mem, error) {
	if pt.Index < 0 || pt.Index > len(trace) {
		return nil, fmt.Errorf("crashpoint: index %d out of range [0, %d]", pt.Index, len(trace))
	}
	m := newModel()
	for _, op := range trace[:pt.Index] {
		m.step(op)
	}

	// Choose the surviving namespace and per-node content.
	ns := make(map[string]int)
	content := make(map[int][]byte)
	switch pt.Policy {
	case KeepAll:
		for p, nd := range m.volNS {
			ns[p] = nd
		}
		for id, n := range m.nodes {
			content[id] = n.volatile
		}
	case DropUnsynced:
		for p, nd := range m.durNS {
			ns[p] = nd
		}
		for id, n := range m.nodes {
			content[id] = n.durable
		}
	case Torn:
		for p, nd := range m.durNS {
			ns[p] = nd
		}
		// A seeded prefix of each directory's pending entry changes lands.
		for dir, ops := range m.pendingMeta {
			k := int(errfs.Chance(pt.Seed, "crash.meta", dir, pt.Index) * float64(len(ops)+1))
			for _, mo := range ops[:min(k, len(ops))] {
				applyMeta(ns, mo)
			}
		}
		// A seeded prefix of each node's pending data ops lands; the last
		// surviving write may itself be cut mid-buffer.
		for id, n := range m.nodes {
			key := fmt.Sprintf("node:%d", id)
			k := int(errfs.Chance(pt.Seed, "crash.data", key, pt.Index) * float64(len(n.pending)+1))
			k = min(k, len(n.pending))
			buf := append([]byte(nil), n.durable...)
			for i, d := range n.pending[:k] {
				if i == k-1 && !d.trunc && len(d.data) > 0 {
					cut := int(errfs.Chance(pt.Seed, "crash.cut", key, pt.Index) * float64(len(d.data)+1))
					d = dataOp{off: d.off, data: d.data[:min(cut, len(d.data))]}
				}
				buf = applyTo(buf, d)
			}
			content[id] = buf
		}
	default:
		return nil, fmt.Errorf("crashpoint: unknown policy %d", pt.Policy)
	}

	// Build the surviving state into a fresh filesystem.
	out := errfs.NewMem()
	for _, d := range m.dirs {
		if err := out.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("crashpoint: %w", err)
		}
	}
	for p, nd := range ns {
		f, err := out.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, fmt.Errorf("crashpoint: %w", err)
		}
		if data := content[nd]; len(data) > 0 {
			if _, err := f.Write(data); err != nil {
				f.Close()
				return nil, fmt.Errorf("crashpoint: %w", err)
			}
		}
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("crashpoint: %w", err)
		}
	}
	return out, nil
}
