package jsonstats

import (
	"slices"
	"unsafe"
)

// Counted is a bounded table of distinct strings with their occurrence
// counts, held sorted by key: the form of a path's string prefixes and
// sampled values. Readers walk it in key order with Len and At, which is the
// order a seeded generator draws from. The analyser counts every key it
// keeps at least once, and ReadFrom rejects a table that does not, so a
// scaled count never drops to 0 and a view keeps its parent's keys.
//
// A table copies each key it admits into its arena, so it never retains the
// caller's string: parsed strings live in parser slabs that a recycling
// parser overwrites with the next document. The arena and the entries that
// locate keys in it hold no pointers, so the collector never scans them and
// inserting into a table needs no write barriers.
//
// A table scaled for a derived summary shares its parent's arena and
// entries and owns only its counts, so neither the keys nor the counts of a
// table may be changed once a view can see it.
type Counted struct {
	// arena holds the bytes of every admitted key, in admission order. It is
	// only ever appended to, so the bytes under a string At returned stay
	// as they are when a later append moves the arena.
	arena   []byte
	entries []entry // one per key, in key order
	counts  []int64
}

// entry locates one key in its table's arena. head holds the key's first
// eight bytes (see head), so that a search reads one contiguous slice
// instead of the arena per step: most of the analyser's strings miss a full
// table.
type entry struct {
	head   uint64
	off, n int
}

// head packs s's first eight bytes big-endian, zero-padded. For any two
// strings, head(a) < head(b) implies a < b; equal heads decide nothing.
func head(s string) uint64 {
	var h uint64
	for i := 0; i < 8; i++ {
		h <<= 8
		if i < len(s) {
			h |= uint64(s[i])
		}
	}
	return h
}

// CountedOf returns the table holding m's entries.
func CountedOf(m map[string]int64) Counted {
	var c Counted
	for k, n := range m {
		h := head(k)
		i, _ := c.search(k, h)
		c.insert(i, k, h, n)
	}
	return c
}

// Len returns the number of keys in the table.
func (c Counted) Len() int { return len(c.entries) }

// At returns the i-th key in key order and its count. The key is a view of
// the arena and stays valid for as long as the caller holds it.
func (c Counted) At(i int) (string, int64) { return c.key(i), c.counts[i] }

func (c *Counted) key(i int) string {
	e := c.entries[i]
	b := c.arena[e.off : e.off+e.n]
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// search returns the index of key, whose head is h, or where to insert it,
// and whether key is present.
func (c *Counted) search(key string, h uint64) (int, bool) {
	lo, hi := 0, len(c.entries)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c.entries[m].head < h || c.entries[m].head == h && c.key(m) < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(c.entries) && c.entries[lo].head == h && c.key(lo) == key
}

// insert copies key, whose head is h, into the arena and places it with
// count n at index i. The first insert sizes the table for a few keys like
// this one: most tables stay small, and growing three slices from nothing
// one doubling at a time would allocate on each of a small table's first
// inserts.
func (c *Counted) insert(i int, key string, h uint64, n int64) {
	if c.entries == nil {
		const initial = 8
		c.arena = make([]byte, 0, initial*len(key))
		c.entries = make([]entry, 0, initial)
		c.counts = make([]int64, 0, initial)
	}
	c.entries = slices.Insert(c.entries, i, entry{head: h, off: len(c.arena), n: len(key)})
	c.arena = append(c.arena, key...)
	c.counts = slices.Insert(c.counts, i, n)
}

// add counts n occurrences of key, admitting a new key only while the table
// holds fewer than limit, and reports whether key was counted. Only a new
// key costs a copy; counting a present one stores nothing.
func (c *Counted) add(key string, n int64, limit int) bool {
	h := head(key)
	i, found := c.search(key, h)
	if found {
		c.counts[i] += n
		return true
	}
	if len(c.entries) >= limit {
		return false
	}
	c.insert(i, key, h, n)
	return true
}

// scale returns the table of a view selecting fraction f of the documents:
// the same keys, each count scaled by scaleCount. With f > 0 every count
// stays at least 1, so no key is dropped.
func (c Counted) scale(f float64) Counted {
	if len(c.counts) == 0 {
		return Counted{}
	}
	counts := make([]int64, len(c.counts))
	for i, n := range c.counts {
		counts[i] = scaleCount(n, f)
	}
	return Counted{arena: c.arena, entries: c.entries, counts: counts}
}
