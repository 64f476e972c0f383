package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/joda-explore/betze/internal/fsatomic"
	"github.com/joda-explore/betze/internal/query"
)

// SessionFile is the shareable on-disk form of a generated session: the
// query sequence plus the dependency-graph skeleton. Together with the seed
// and the means to acquire the dataset, it lets a second party validate
// results or generate queries for another system (§IV-C).
type SessionFile struct {
	Preset  Preset         `json:"preset"`
	Seed    int64          `json:"seed"`
	Queries []*query.Query `json:"queries"`
	Nodes   []NodeInfo     `json:"nodes"`
	Steps   []Step         `json:"steps"`
}

// NodeInfo is the serialisable skeleton of a graph node.
type NodeInfo struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	Root string `json:"root"`
	// Parent is the parent node ID, -1 for initial datasets.
	Parent int `json:"parent"`
	// Count is the (verified or estimated) document count.
	Count int64 `json:"count"`
	// Verified marks backend-verified counts.
	Verified bool `json:"verified"`
}

// File converts the session into its shareable form.
func (s *Session) File() *SessionFile {
	f := &SessionFile{
		Preset:  s.Preset,
		Seed:    s.Seed,
		Queries: s.Queries,
		Steps:   s.Steps,
	}
	for _, n := range s.Nodes {
		parent := -1
		if n.Parent != nil {
			parent = n.Parent.ID
		}
		f.Nodes = append(f.Nodes, NodeInfo{
			ID: n.ID, Name: n.Name, Root: n.Root,
			Parent: parent, Count: n.Count, Verified: n.Verified,
		})
	}
	return f
}

// WriteTo streams the session file as indented JSON.
func (f *SessionFile) WriteTo(w io.Writer) (int64, error) {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return 0, fmt.Errorf("core: encoding session: %w", err)
	}
	data = append(data, '\n')
	n, err := w.Write(data)
	return int64(n), err
}

// ErrCorruptSession reports a session file whose content is truncated,
// garbage, or structurally inconsistent. Callers match it with errors.Is to
// distinguish corruption from I/O failures.
var ErrCorruptSession = errors.New("core: corrupt session file")

// WriteSessionFile stores the session under path, published atomically — a
// crash mid-write leaves the previous file or none, never a torn one.
func WriteSessionFile(path string, s *Session) error {
	out, err := fsatomic.Create(path)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	defer out.Close()
	if _, err := s.File().WriteTo(out); err != nil {
		return err
	}
	if err := out.Commit(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// ReadSessionFile loads a session file written by WriteSessionFile. A file
// that does not decode, or decodes into an inconsistent session, wraps
// ErrCorruptSession.
func ReadSessionFile(path string) (*SessionFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	f, err := decodeSessionFile(data)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return f, nil
}

// decodeSessionFile is ReadSessionFile's byte boundary: a session file is
// outside input, so whatever data holds yields a valid file or an error
// wrapping ErrCorruptSession.
func decodeSessionFile(data []byte) (*SessionFile, error) {
	var f SessionFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%w: decoding: %v", ErrCorruptSession, err)
	}
	if err := f.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptSession, err)
	}
	return &f, nil
}

// validate rejects structurally inconsistent session files: a truncated or
// hand-edited file can decode cleanly yet break every consumer that walks
// the query list or the dependency graph, and a query every engine must
// reject (query.Validate) would fail differently on each.
func (f *SessionFile) validate() error {
	for i, q := range f.Queries {
		if q == nil {
			return fmt.Errorf("query %d is null", i)
		}
		if q.ID == "" {
			return fmt.Errorf("query %d has no id", i)
		}
		if err := q.Validate(); err != nil {
			return err
		}
	}
	ids := make(map[int]bool, len(f.Nodes))
	for i, n := range f.Nodes {
		if ids[n.ID] {
			return fmt.Errorf("node %d duplicates id %d", i, n.ID)
		}
		ids[n.ID] = true
	}
	for i, n := range f.Nodes {
		if n.Parent != -1 && !ids[n.Parent] {
			return fmt.Errorf("node %d references missing parent %d", i, n.Parent)
		}
	}
	return nil
}
