// Package runlog is an append-only, crash-safe write-ahead run journal.
// A journal is a directory holding one file, "current.wal": a sequence of
// length-prefixed, checksummed records:
//
//	u32le payload length | u32le CRC-32C of payload | payload bytes
//
// The writer appends to that file and fsyncs on Sync (the harness syncs
// after every work-unit record, so a completed session is durable before
// the next one starts). Close syncs and closes it; a clean shutdown leaves
// nothing else to do, because recovery needs no marker from the writer.
//
// Recovery reads the file and truncates at the first torn or
// checksum-corrupt record instead of failing: a crash mid-append loses at
// most the record being written, exactly the write-ahead-log contract
// storage engines provide. Re-opening a recovered journal for append
// physically truncates the torn tail first, so the next record lands on a
// clean boundary.
//
// Journals written before the single-file format could also hold sealed
// segments named "000001.wal" and up; Create, Open and Recover refuse such
// a directory with ErrLegacyJournal rather than replay only part of it.
//
// All I/O goes through an errfs.FS (Options.FS, defaulting to the
// passthrough errfs.OS()), so storage faults can be injected and crash
// states enumerated; see internal/errfs and internal/errfs/crashpoint.
package runlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"github.com/joda-explore/betze/internal/errfs"
)

// Sentinel errors of the journal format. Readers wrap them with positional
// context; callers branch with errors.Is.
var (
	// ErrCorrupt marks a record whose payload fails its checksum.
	ErrCorrupt = errors.New("runlog: corrupt record")
	// ErrTorn marks a record cut short by a crash: a partial header or a
	// payload shorter than its length prefix.
	ErrTorn = errors.New("runlog: torn record")
	// ErrTooLarge marks a length prefix beyond MaxRecord — indistinguishable
	// from garbage, so recovery treats it as corruption.
	ErrTooLarge = errors.New("runlog: record length exceeds bound")
	// ErrExists is returned by Create when the directory already holds a
	// journal (resume it instead of silently overwriting).
	ErrExists = errors.New("runlog: journal already exists")
	// ErrNoJournal is returned by Open/Recover when the directory holds no
	// journal file.
	ErrNoJournal = errors.New("runlog: no journal")
	// ErrWriterFailed marks a writer poisoned by an unrecoverable storage
	// fault: a failed fsync (the kernel may have dropped dirty pages, so a
	// later "success" would ack records that are not durable) or a partial
	// append whose boundary could not be restored. Every subsequent
	// Append/Sync fails with it; the journal directory itself is still
	// recoverable up to the last good boundary.
	ErrWriterFailed = errors.New("runlog: writer failed")
	// ErrLegacyJournal is returned by Create, Open and Recover for a
	// directory holding sealed segments of the multi-segment format that
	// preceded the single journal file. Replaying only current.wal would
	// silently drop the sealed records, so such a journal is refused.
	ErrLegacyJournal = errors.New("runlog: journal predates the single-file format")
)

// MaxRecord bounds one record's payload; larger length prefixes are read as
// corruption, which keeps a flipped length byte from swallowing the rest of
// the journal as one giant bogus record.
const MaxRecord = 16 << 20

const (
	headerSize  = 8 // u32 length + u32 crc
	journalFile = "current.wal"
	// legacySegment is the first sealed segment of a multi-segment journal.
	// Segment indices started at 1 and sealed segments were never deleted,
	// so every such journal that ever sealed one still holds this file.
	legacySegment = "000001.wal"
)

// crcTable is the Castagnoli polynomial (hardware-accelerated on amd64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options tunes the writer.
type Options struct {
	// NoSync skips fsync (tests only; production callers want the
	// durability they came for).
	NoSync bool
	// FS is the filesystem all journal I/O goes through. Defaults to the
	// passthrough errfs.OS(); tests and the crashfuzz harness substitute
	// an in-memory or fault-injecting filesystem.
	FS errfs.FS
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = errfs.OS()
	}
	return o
}

// Writer appends records to a journal.
type Writer struct {
	opts Options
	f    errfs.File
	size int64
	// failed poisons the writer after an unrecoverable fault; see
	// ErrWriterFailed.
	failed error
}

// Create initialises a fresh journal in dir (created if missing). It
// refuses a directory that already holds a journal: resuming and starting
// over are different intents, and overwriting a journal silently would
// destroy the recovery data it exists to provide.
func Create(dir string, opts Options) (*Writer, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	if err := refuseLegacy(opts.FS, dir); err != nil {
		return nil, err
	}
	f, err := opts.FS.OpenFile(filepath.Join(dir, journalFile), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if errors.Is(err, os.ErrExist) {
		return nil, fmt.Errorf("%w in %s", ErrExists, dir)
	}
	if err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	if err := syncDir(opts, dir); err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{opts: opts, f: f}, nil
}

// Open re-opens an existing journal for append. A torn tail (if any) is
// physically truncated to the last complete record, so appended records
// always start on a clean boundary. Callers wanting the surviving records
// run Recover first.
func Open(dir string, opts Options) (*Writer, error) {
	opts = opts.withDefaults()
	data, err := readJournal(opts.FS, dir)
	if err != nil {
		return nil, err
	}
	good, _, _ := scan(data)
	path := filepath.Join(dir, journalFile)
	f, err := opts.FS.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("runlog: truncating torn tail of %s: %w", path, err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("runlog: %w", err)
	}
	return &Writer{opts: opts, f: f, size: good}, nil
}

// Append writes one record to the journal (buffered by the OS until Sync).
// A failed write restores the last clean record boundary (truncating any
// partial bytes) so a later append never lands after garbage; if the
// boundary cannot be restored the writer is poisoned.
func (w *Writer) Append(payload []byte) error {
	if w.failed != nil {
		return w.failed
	}
	if len(payload) > MaxRecord {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	if _, err := w.f.Write(hdr[:]); err != nil {
		return w.abortAppend(err)
	}
	if _, err := w.f.Write(payload); err != nil {
		return w.abortAppend(err)
	}
	w.size += int64(headerSize + len(payload))
	return nil
}

// abortAppend recovers from a failed record write. Partial bytes may have
// landed and the file offset may have advanced, so the file is truncated
// back to the last clean boundary and the offset restored; without this, a
// later successful AppendSync would land after garbage and recovery would
// truncate AT the garbage — losing records that were acked AFTER the
// transient failure. If the restore itself fails, the writer is poisoned:
// acking anything appended over unknown partial bytes would break the
// recovery prefix contract.
func (w *Writer) abortAppend(werr error) error {
	if terr := w.f.Truncate(w.size); terr != nil {
		w.failed = fmt.Errorf("%w: append: %v; boundary restore: %v", ErrWriterFailed, werr, terr)
		return w.failed
	}
	if _, serr := w.f.Seek(w.size, io.SeekStart); serr != nil {
		w.failed = fmt.Errorf("%w: append: %v; offset restore: %v", ErrWriterFailed, werr, serr)
		return w.failed
	}
	return fmt.Errorf("runlog: %w", werr)
}

// Sync makes every appended record durable. A failed fsync poisons the
// writer: the kernel may have dropped the dirty pages, so retrying and
// reporting success would ack records that never reached the disk.
func (w *Writer) Sync() error {
	if w.failed != nil {
		return w.failed
	}
	if w.opts.NoSync {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.failed = fmt.Errorf("%w: fsync: %v", ErrWriterFailed, err)
		return w.failed
	}
	return nil
}

// AppendSync appends one record and fsyncs — the per-work-unit durability
// point of the harness.
func (w *Writer) AppendSync(payload []byte) error {
	if err := w.Append(payload); err != nil {
		return err
	}
	return w.Sync()
}

// Close syncs and closes the journal; it is the whole of a clean shutdown.
// A poisoned writer closes its handle but still reports the poisoning
// fault. The Writer is unusable afterwards.
func (w *Writer) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.Sync()
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("runlog: %w", cerr)
	}
	w.f = nil
	return err
}

// Recovery is the result of replaying a journal.
type Recovery struct {
	// Records are the intact payloads, in append order.
	Records [][]byte
	// Truncated reports that a torn or corrupt record cut the replay short;
	// Records holds everything before it.
	Truncated bool
	// Reason wraps ErrTorn/ErrCorrupt/ErrTooLarge with position context when
	// Truncated is set.
	Reason error
	// Offset is the end of the clean prefix: where the first bad record
	// starts when Truncated, the journal's size otherwise.
	Offset int64
}

// Recover replays every intact record of the journal in dir. Torn and
// corrupt records do not fail the recovery — replay stops at the first one
// (dropping it and everything after, the write-ahead-log truncation rule)
// and the Recovery reports where and why. Only I/O errors, a missing
// journal and a pre-single-file journal are returned as errors.
func Recover(dir string) (*Recovery, error) {
	return RecoverFS(errfs.OS(), dir)
}

// RecoverFS is Recover over an explicit filesystem.
func RecoverFS(fsys errfs.FS, dir string) (*Recovery, error) {
	data, err := readJournal(fsys, dir)
	if err != nil {
		return nil, err
	}
	good, records, reason := scan(data)
	return &Recovery{Records: records, Truncated: reason != nil, Reason: reason, Offset: good}, nil
}

// readJournal reads the journal file of dir whole. A missing file (or
// directory) is ErrNoJournal; a read failure is an I/O error — the journal
// is unreadable, not merely torn.
func readJournal(fsys errfs.FS, dir string) ([]byte, error) {
	if err := refuseLegacy(fsys, dir); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, journalFile)
	data, err := fsys.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w in %s", ErrNoJournal, dir)
	}
	if err != nil {
		return nil, fmt.Errorf("runlog: reading %s: %w", path, err)
	}
	return data, nil
}

// scan is the one parser of the record framing. It returns the byte offset
// of the last clean record boundary, the intact payloads before it, and
// the wrapped sentinel that stopped the scan (nil when data ends exactly on
// a boundary).
func scan(data []byte) (good int64, records [][]byte, reason error) {
	for int64(len(data))-good > 0 {
		rest := data[good:]
		if len(rest) < headerSize {
			return good, records, fmt.Errorf("%w: %d trailing header byte(s) at %s:%d", ErrTorn, len(rest), journalFile, good)
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n > MaxRecord {
			return good, records, fmt.Errorf("%w: length %d at %s:%d", ErrTooLarge, n, journalFile, good)
		}
		if int64(len(rest)) < headerSize+int64(n) {
			return good, records, fmt.Errorf("%w: payload cut at %d of %d bytes at %s:%d", ErrTorn, len(rest)-headerSize, n, journalFile, good)
		}
		payload := rest[headerSize : headerSize+int64(n)]
		if crc32.Checksum(payload, crcTable) != sum {
			return good, records, fmt.Errorf("%w: checksum mismatch at %s:%d", ErrCorrupt, journalFile, good)
		}
		// Copy: data is one big read buffer; callers keep payloads around.
		records = append(records, append([]byte(nil), payload...))
		good += headerSize + int64(n)
	}
	return good, records, nil
}

// refuseLegacy fails with ErrLegacyJournal when dir holds a sealed segment
// of the multi-segment format.
func refuseLegacy(fsys errfs.FS, dir string) error {
	f, err := fsys.OpenFile(filepath.Join(dir, legacySegment), os.O_RDONLY, 0)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("runlog: %w", err)
	}
	f.Close()
	return fmt.Errorf("%w: %s holds sealed segment %s; finish it with the release that wrote it, or move it aside",
		ErrLegacyJournal, dir, legacySegment)
}

// syncDir makes the journal file's creation durable; best-effort on
// filesystems refusing directory fsync.
func syncDir(opts Options, dir string) error {
	if opts.NoSync {
		return nil
	}
	if err := opts.FS.SyncDir(dir); err != nil {
		return fmt.Errorf("runlog: %w", err)
	}
	return nil
}
