package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestSessionFileRoundTrip(t *testing.T) {
	docs := testCorpus(1200, 99)
	stats := corpusStats(t, "base", docs)
	s, err := Generate(Options{Seed: 3, Preset: Novice, Aggregate: true, GroupBy: true}, stats)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "session.json")
	if err := WriteSessionFile(path, s); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSessionFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Preset != s.Preset || back.Seed != s.Seed {
		t.Errorf("header mismatch: %+v", back)
	}
	if len(back.Queries) != len(s.Queries) {
		t.Fatalf("query count %d != %d", len(back.Queries), len(s.Queries))
	}
	for i := range back.Queries {
		if back.Queries[i].String() != s.Queries[i].String() {
			t.Errorf("query %d differs:\n got %s\nwant %s", i, back.Queries[i], s.Queries[i])
		}
	}
	if len(back.Nodes) != len(s.Nodes) || len(back.Steps) != len(s.Steps) {
		t.Errorf("graph skeleton lost: %d/%d nodes, %d/%d steps",
			len(back.Nodes), len(s.Nodes), len(back.Steps), len(s.Steps))
	}
	for i, n := range back.Nodes {
		wantParent := -1
		if s.Nodes[i].Parent != nil {
			wantParent = s.Nodes[i].Parent.ID
		}
		if n.Parent != wantParent || n.Name != s.Nodes[i].Name || n.Count != s.Nodes[i].Count {
			t.Errorf("node %d mismatch: %+v", i, n)
		}
	}
}

func TestReadSessionFileErrors(t *testing.T) {
	if _, err := ReadSessionFile("/does/not/exist.json"); err == nil {
		t.Errorf("missing file accepted")
	}
	if errors.Is(mustReadErr(t, "/does/not/exist.json"), ErrCorruptSession) {
		t.Errorf("missing file misreported as corruption")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := writeFileHelper(bad, "{broken"); err != nil {
		t.Fatal(err)
	}
	if err := mustReadErr(t, bad); !errors.Is(err, ErrCorruptSession) {
		t.Errorf("malformed file error %v, want ErrCorruptSession", err)
	}
}

// TestReadSessionFileCorruption truncates a valid session file at every
// byte offset and flips bits through it: reads must never panic, and every
// rejection must carry the ErrCorruptSession sentinel. Offsets that happen
// to decode (short valid JSON prefixes do not exist for objects, but bit
// flips inside string values can survive) must still validate structurally.
func TestReadSessionFileCorruption(t *testing.T) {
	docs := testCorpus(400, 7)
	stats := corpusStats(t, "base", docs)
	s, err := Generate(Options{Seed: 11, Preset: Novice}, stats)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "session.json")
	if err := WriteSessionFile(path, s); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(t.TempDir(), "mut.json")
	for cut := 0; cut < len(full); cut++ {
		if err := os.WriteFile(target, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// Cutting only trailing whitespace leaves a complete document; any
		// other cut must be rejected with the corruption sentinel.
		if _, err := ReadSessionFile(target); err == nil {
			if len(bytes.TrimSpace(full[cut:])) != 0 {
				t.Fatalf("truncation at %d of %d accepted", cut, len(full))
			}
		} else if !errors.Is(err, ErrCorruptSession) {
			t.Fatalf("truncation at %d: %v, want ErrCorruptSession", cut, err)
		}
	}
	// Bit flips: step through the file (every byte would be slow at this
	// size); any accepted mutation must still be a structurally valid file.
	for i := 0; i < len(full); i += 7 {
		mutated := append([]byte(nil), full...)
		mutated[i] ^= 0x20
		if err := os.WriteFile(target, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := ReadSessionFile(target)
		if err != nil {
			if !errors.Is(err, ErrCorruptSession) {
				t.Fatalf("flip@%d: %v, want ErrCorruptSession", i, err)
			}
			continue
		}
		if verr := f.validate(); verr != nil {
			t.Fatalf("flip@%d: accepted file fails validation: %v", i, verr)
		}
	}
}

// TestSessionFileValidate pins the structural rules a decoded-but-broken
// file must trip.
func TestSessionFileValidate(t *testing.T) {
	cases := []struct {
		label string
		json  string
	}{
		{"null query", `{"queries":[null]}`},
		{"query without id", `{"queries":[{"id":""}]}`},
		{"duplicate node id", `{"nodes":[{"id":1,"parent":-1},{"id":1,"parent":-1}]}`},
		{"missing parent", `{"nodes":[{"id":1,"parent":7}]}`},
		{"query without base", `{"queries":[{"id":"q1"}]}`},
		{"stored aggregation", `{"queries":[{"id":"q1","base":"ds","store":"out","agg":{"func":"COUNT","path":""}}]}`},
	}
	dir := t.TempDir()
	for _, c := range cases {
		path := filepath.Join(dir, "case.json")
		if err := writeFileHelper(path, c.json); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSessionFile(path); !errors.Is(err, ErrCorruptSession) {
			t.Errorf("%s: %v, want ErrCorruptSession", c.label, err)
		}
	}
}

// FuzzReadSessionFile: whatever bytes a session file holds, decoding never
// panics and either rejects them with ErrCorruptSession or accepts a file
// that WriteTo writes out and decodes back to the same bytes. The corpus
// under testdata/fuzz holds the edge cases: an unknown predicate kind, an
// AND missing a child, a store named like its base, store names "" and
// "../x", and deep nesting.
func FuzzReadSessionFile(f *testing.F) {
	f.Add([]byte(`{"preset":{"Name":"novice","Alpha":0.5,"Beta":0.3,"Queries":1},"seed":3,` +
		`"queries":[{"id":"q1","base":"ds","store":"d","filter":{"kind":"exists","path":"/a"}}],` +
		`"nodes":[{"id":0,"name":"ds","root":"ds","parent":-1,"count":5,"verified":false}],"steps":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := decodeSessionFile(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptSession) {
				t.Fatalf("rejection %v does not wrap ErrCorruptSession", err)
			}
			return
		}
		var first, second bytes.Buffer
		if _, err := sf.WriteTo(&first); err != nil {
			t.Fatalf("accepted file does not write: %v", err)
		}
		back, err := decodeSessionFile(first.Bytes())
		if err != nil {
			t.Fatalf("written file does not decode: %v\n%s", err, first.Bytes())
		}
		if _, err := back.WriteTo(&second); err != nil || !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the file (%v):\n%s\n---\n%s", err, first.Bytes(), second.Bytes())
		}
	})
}

func mustReadErr(t *testing.T, path string) error {
	t.Helper()
	_, err := ReadSessionFile(path)
	if err == nil {
		t.Fatalf("ReadSessionFile(%s) unexpectedly succeeded", path)
	}
	return err
}

func writeFileHelper(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
