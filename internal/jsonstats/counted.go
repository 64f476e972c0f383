package jsonstats

import (
	"slices"
	"strings"
)

// Counted is a bounded table of distinct strings with their occurrence
// counts, held sorted by key: the form of a path's string prefixes and
// sampled values. Readers walk it in key order with Len and At, which is the
// order a seeded generator draws from. The analyser counts every key it
// keeps at least once, and ReadFrom rejects a table that does not, so a
// scaled count never drops to 0 and a view keeps its parent's keys.
//
// A table scaled for a derived summary shares its parent's keys and owns
// only its counts, so neither the keys nor the counts of a table may be
// changed once a view can see it.
type Counted struct {
	keys []string
	// heads holds each key's first eight bytes (see head), so that a
	// search reads one contiguous slice instead of a string per step: most
	// of the analyser's strings miss a full table.
	heads  []uint64
	counts []int64
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
func (c Counted) Len() int { return len(c.keys) }

// At returns the i-th key in key order and its count.
func (c Counted) At(i int) (string, int64) { return c.keys[i], c.counts[i] }

// search returns the index of key, whose head is h, or where to insert it,
// and whether key is present.
func (c *Counted) search(key string, h uint64) (int, bool) {
	lo, hi := 0, len(c.keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c.heads[m] < h || c.heads[m] == h && c.keys[m] < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(c.keys) && c.heads[lo] == h && c.keys[lo] == key
}

// insert places key, its head h and its count n at index i. The first
// insert sizes the table for a few keys: most tables stay small, and growing
// three slices from nothing one doubling at a time would allocate on each of
// a small table's first inserts.
func (c *Counted) insert(i int, key string, h uint64, n int64) {
	if c.keys == nil {
		const initial = 8
		c.keys = make([]string, 0, initial)
		c.heads = make([]uint64, 0, initial)
		c.counts = make([]int64, 0, initial)
	}
	c.keys = slices.Insert(c.keys, i, key)
	c.heads = slices.Insert(c.heads, i, h)
	c.counts = slices.Insert(c.counts, i, n)
}

// add counts n occurrences of key, admitting a new key only while the table
// holds fewer than limit, and reports whether key was counted. A new key is
// cloned on insertion, the one time the table retains it: parsed strings
// point into slab chunks shared with neighbouring documents.
func (c *Counted) add(key string, n int64, limit int) bool {
	h := head(key)
	i, found := c.search(key, h)
	if found {
		c.counts[i] += n
		return true
	}
	if len(c.keys) >= limit {
		return false
	}
	c.insert(i, strings.Clone(key), h, n)
	return true
}

// merge adds src's counts to c in key order under add's admission rule, and
// reports whether a key was dropped. Key order makes the survivors of a full
// table independent of how the documents were split into shards. src's keys
// belong to a summary, not to a document, so they are kept without a clone.
func (c *Counted) merge(src Counted, limit int) (dropped bool) {
	for i, k := range src.keys {
		j, found := c.search(k, src.heads[i])
		switch {
		case found:
			c.counts[j] += src.counts[i]
		case len(c.keys) < limit:
			c.insert(j, k, src.heads[i], src.counts[i])
		default:
			dropped = true
		}
	}
	return dropped
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
	return Counted{keys: c.keys, heads: c.heads, counts: counts}
}
