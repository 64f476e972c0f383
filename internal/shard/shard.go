// Package shard stores a parsed dataset as fixed-size columnar shards with
// per-shard zone maps: a path-existence index, min/max summaries per numeric
// leaf path, length bounds for arrays and objects, seen-value bits for
// booleans, and a small sorted dictionary of the distinct strings at each
// path. Zone maps are built once at dataset-load time; at query time a
// compiled predicate (internal/query) consults them through the query.Zone
// interface and skips whole shards it proves empty. mongosim and pgsim build
// them per storage block; jodasim, like JODA, keeps none (View).
//
// The soundness contract mirrors query.Zone's: a zone map may over-claim
// (record paths, kinds or values no document actually has — for example two
// members with the same key both widen one entry, and the "" member of the
// root shares the root's "/" entry, exactly matching how jsonval.Path
// addresses collapse), but it must never under-claim. Every path that
// jsonval.Path.Lookup can resolve in any document of the shard either has a
// summary entry or the zone reports Complete() == false, which happens when
// the per-shard path or depth caps overflow.
//
// ZoneBuilder renders a path once per distinct member chain, not per value:
// it descends a trie keyed by member name, kept across shards, whose nodes
// lead to the slot of their rendered key; a slot's position in the current
// shard's stats is valid while its generation stamp is the builder's. Two
// rules keep this equivalent to keying every value by its rendered path.
// One slot per rendered key: distinct chains render the same key (the root's
// "" member renders "/" like the root, a member "a/b" like the chain a→b),
// so a new node looks its slot up by key — while staying a node of its own,
// because the children of root→"" render "//r", not "/r". And whatever
// outlives its document clones the string it keeps: keys come from
// concatenation and are shared by all zone maps of the dataset, dictionary
// entries are cloned, so no zone map pins a parsed document's slab chunk.
package shard

import (
	"math"
	"sort"
	"strings"

	"github.com/joda-explore/betze/internal/jsonval"
	"github.com/joda-explore/betze/internal/query"
)

// DefaultSize is the shard length engines use when the caller does not pick
// one: big enough that per-shard overheads (one indirect call, one zone
// probe) vanish against the per-document work, small enough that skipping a
// shard skips a meaningful slice of a selective scan.
const DefaultSize = 256

const (
	// maxPaths caps the distinct paths one zone map indexes; past it the
	// zone turns incomplete (absent-path pruning off, entry-based pruning
	// still on). Real datasets sit far below this — the cap only guards
	// against pathological documents inflating load time.
	maxPaths = 4096
	// maxDepth caps the object depth the builder walks; deeper subtrees
	// also turn the zone incomplete.
	maxDepth = 16
	// maxDict caps the distinct strings tracked per path before the
	// dictionary overflows (string pruning off for that path, kind and
	// range pruning still on).
	maxDict = 16
)

// Shard is one fixed-size slice of a dataset. Docs aliases the store's
// backing slice; Start is the offset of Docs[0] in the original document
// order. Zone is nil for view stores (see View) — a nil zone never prunes.
type Shard struct {
	Start int
	Docs  []jsonval.Value
	Zone  *ZoneMap
}

// Store is a dataset cut into shards. The document slice itself is shared,
// not copied: a store is an index over the data, not a second copy of it.
type Store struct {
	docs   []jsonval.Value
	shards []Shard
}

// Build cuts docs into size-length shards (the last one shorter when the
// dataset is not a multiple) and builds one zone map per shard. size <= 0
// selects DefaultSize. The docs slice must not be mutated afterwards. Outside
// tests only benchmark/replay.go calls it, for shard.build_ns_per_doc.
func Build(docs []jsonval.Value, size int) *Store {
	return build(docs, size, true)
}

// View cuts docs into shards without building zone maps: every shard gets a
// nil Zone and is never skipped. jodasim keeps every dataset as a view: the
// shard walk applies, and no zone construction is paid for.
func View(docs []jsonval.Value, size int) *Store {
	return build(docs, size, false)
}

func build(docs []jsonval.Value, size int, zones bool) *Store {
	if size <= 0 {
		size = DefaultSize
	}
	s := &Store{docs: docs}
	if n := len(docs); n > 0 {
		s.shards = make([]Shard, 0, (n+size-1)/size)
	}
	var b *ZoneBuilder
	if zones {
		b = NewZoneBuilder()
	}
	for start := 0; start < len(docs); start += size {
		end := start + size
		if end > len(docs) {
			end = len(docs)
		}
		sh := Shard{Start: start, Docs: docs[start:end]}
		if zones {
			for i := start; i < end; i++ {
				b.Add(docs[i])
			}
			sh.Zone = b.Finish()
		}
		s.shards = append(s.shards, sh)
	}
	return s
}

// Docs returns the full document slice in original order.
func (s *Store) Docs() []jsonval.Value { return s.docs }

// Len returns the document count.
func (s *Store) Len() int { return len(s.docs) }

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// Shard returns shard i.
func (s *Store) Shard(i int) Shard { return s.shards[i] }

// pathStat accumulates everything observed at one path across one shard.
type pathStat struct {
	kinds               query.KindMask
	numMin, numMax      float64
	arrMin, arrMax      int
	objMin, objMax      int
	trueSeen, falseSeen bool
	dict                []string
	dictOverflow        bool
}

func newPathStat() pathStat {
	return pathStat{
		numMin: math.Inf(1), numMax: math.Inf(-1),
		arrMin: math.MaxInt, arrMax: -1,
		objMin: math.MaxInt, objMax: -1,
	}
}

// ZoneMap is one shard's summary, implementing query.Zone. All methods are
// nil-receiver safe: a nil zone indexes nothing and is never complete, so
// it never prunes — the behaviour view shards rely on.
type ZoneMap struct {
	idx        map[string]int32
	stats      []pathStat
	incomplete bool
}

// Summary implements query.Zone.
func (z *ZoneMap) Summary(path string) (query.PathSummary, bool) {
	if z == nil {
		return query.PathSummary{}, false
	}
	i, ok := z.idx[path]
	if !ok {
		return query.PathSummary{}, false
	}
	st := &z.stats[i]
	return query.PathSummary{
		Kinds:  st.kinds,
		NumMin: st.numMin, NumMax: st.numMax,
		ArrMin: st.arrMin, ArrMax: st.arrMax,
		ObjMin: st.objMin, ObjMax: st.objMax,
		TrueSeen: st.trueSeen, FalseSeen: st.falseSeen,
		Dict:         st.dict,
		DictComplete: !st.dictOverflow,
	}, true
}

// Complete implements query.Zone.
func (z *ZoneMap) Complete() bool { return z != nil && !z.incomplete }

// ZoneBuilder accumulates documents into a zone map. One builder is reused
// across the shards of a dataset: Finish seals the current map and resets
// the builder for the next shard. Engines that buffer documents into their
// own storage blocks (mongosim, pgsim) feed the builder document-by-document
// as they go, so zone construction rides along with the import pass.
type ZoneBuilder struct {
	z     *ZoneMap
	gen   int // the current shard; stamps the slots it has touched
	root  *zoneNode
	nodes int
	slots map[string]*zoneSlot // rendered key → its one slot
	used  []*zoneSlot          // the current shard's slots, in stats order
}

// zoneNode is one member chain; zoneSlot the path key it renders to.
type zoneNode struct {
	slot *zoneSlot
	kids map[string]*zoneNode
}

type zoneSlot struct {
	key string
	idx int32 // position in the current shard's stats while gen matches
	gen int
}

// maxTrieNodes bounds the trie carried from shard to shard (a dataset that
// keys objects by identifier has a chain per document): past it, the next
// shard starts a fresh one.
const maxTrieNodes = 16 * maxPaths

// NewZoneBuilder returns an empty builder.
func NewZoneBuilder() *ZoneBuilder {
	b := &ZoneBuilder{z: &ZoneMap{}}
	b.resetTrie()
	return b
}

func (b *ZoneBuilder) resetTrie() {
	root := &zoneSlot{key: "/", gen: -1}
	b.root, b.nodes = &zoneNode{slot: root}, 1
	b.slots = map[string]*zoneSlot{root.key: root}
}

// Add folds one document into the zone map under construction.
func (b *ZoneBuilder) Add(doc jsonval.Value) {
	b.walk(b.root, doc, 0)
}

// Finish seals and returns the accumulated zone map (indexing its paths and
// sorting each path's string dictionary for the binary searches pruning
// runs) and resets the builder for the next shard, whose tables it sizes
// from this one's. Finishing an empty builder yields a valid, complete zone
// map that indexes nothing — correct for an empty shard.
func (b *ZoneBuilder) Finish() *ZoneMap {
	z := b.z
	z.idx = make(map[string]int32, len(b.used))
	for i, slot := range b.used {
		z.idx[slot.key] = int32(i)
	}
	for i := range z.stats {
		if st := &z.stats[i]; len(st.dict) > 1 {
			sort.Strings(st.dict)
		}
	}
	b.z = &ZoneMap{stats: make([]pathStat, 0, len(z.stats))}
	b.used = b.used[:0]
	b.gen++
	if b.nodes > maxTrieNodes {
		b.resetTrie()
	}
	return z
}

// walk records v in node's slot, then recurses into object members. Arrays
// are summarised (kind + length) but not descended: jsonval.Path cannot
// address array elements, so no predicate can reach them.
func (b *ZoneBuilder) walk(node *zoneNode, v jsonval.Value, depth int) {
	st := b.record(node.slot, v)
	if v.Kind() != jsonval.Object {
		return
	}
	members := v.Members()
	if depth >= maxDepth {
		if len(members) > 0 && st != nil {
			b.z.incomplete = true
		}
		return
	}
	for i := range members {
		b.walk(b.child(node, members[i].Key), members[i].Value, depth+1)
	}
}

// child returns the node of n's member name, creating it on first sight.
// The root's key is "/" and its children drop the lone slash ("/a", not
// "//a") to match jsonval.Path rendering. Once the shard is at its path cap a
// key without a slot cannot get an entry any more, so its node is a
// throw-away one (record turns the zone incomplete, the walk below it still
// reaches keys that have entries): a shard adds at most maxPaths slots.
func (b *ZoneBuilder) child(n *zoneNode, name string) *zoneNode {
	if kid := n.kids[name]; kid != nil {
		return kid
	}
	key := "/" + name
	if n != b.root {
		key = n.slot.key + key
	}
	slot := b.slots[key]
	if slot == nil {
		slot = &zoneSlot{key: key, gen: -1}
		if len(b.z.stats) >= maxPaths {
			return &zoneNode{slot: slot}
		}
		b.slots[key] = slot
	}
	if n.kids == nil {
		n.kids = make(map[string]*zoneNode)
	}
	kid := &zoneNode{slot: slot}
	n.kids[key[len(key)-len(name):]] = kid
	b.nodes++
	return kid
}

// record widens the slot's stat entry with v, creating the entry on the
// slot's first value in this shard unless the path cap is hit (which marks
// the zone incomplete and returns nil).
func (b *ZoneBuilder) record(slot *zoneSlot, v jsonval.Value) *pathStat {
	z := b.z
	if slot.gen != b.gen {
		if len(z.stats) >= maxPaths {
			z.incomplete = true
			return nil
		}
		slot.gen, slot.idx = b.gen, int32(len(z.stats))
		z.stats = append(z.stats, newPathStat())
		b.used = append(b.used, slot)
	}
	st := &z.stats[slot.idx]
	st.widen(v)
	return st
}

// widen folds one value into the path's summary.
func (st *pathStat) widen(v jsonval.Value) {
	st.kinds |= query.MaskOf(v.Kind())
	switch v.Kind() {
	case jsonval.Int, jsonval.Float:
		n, _ := v.Number()
		if n < st.numMin {
			st.numMin = n
		}
		if n > st.numMax {
			st.numMax = n
		}
	case jsonval.Bool:
		if v.Bool() {
			st.trueSeen = true
		} else {
			st.falseSeen = true
		}
	case jsonval.String:
		st.addString(v.Str())
	case jsonval.Array:
		n := v.Len()
		if n < st.arrMin {
			st.arrMin = n
		}
		if n > st.arrMax {
			st.arrMax = n
		}
	case jsonval.Object:
		n := v.Len()
		if n < st.objMin {
			st.objMin = n
		}
		if n > st.objMax {
			st.objMax = n
		}
	}
}

// addString inserts a copy of s into the path's dictionary unless it
// overflowed. The dictionary is kept as an unsorted unique list during the
// build (it holds at most maxDict entries, so the linear membership test is a
// handful of compares) and sorted once in Finish.
func (st *pathStat) addString(s string) {
	if st.dictOverflow {
		return
	}
	for _, d := range st.dict {
		if d == s {
			return
		}
	}
	if len(st.dict) >= maxDict {
		st.dict, st.dictOverflow = nil, true
		return
	}
	if st.dict == nil {
		st.dict = make([]string, 0, 4) // most paths hold few distinct strings per shard
	}
	st.dict = append(st.dict, strings.Clone(s))
}
