// Compiled predicate execution. The predicate tree is compiled once per
// query into allocation-free closures, so the per-document hot path of a
// scan pays no interface dispatch over the tree, no path re-splitting and no
// operator switches. The paper's evaluation (Fig. 8–9, Table II) measures
// engines by per-query latency over generated sessions; this layer is where
// the reproduction spends that latency, so it is compiled rather than
// interpreted.
//
// There is one compiler, written once over a path resolver: the one part of
// evaluation that differs between storage formats. A resolver registers
// each leaf path at compile time, resolves it in each document, and decodes
// the document for leaf types the compiler does not know. Compile resolves
// parsed jsonval documents through a path trie (jodasim and the generator's
// verification backend); CompileLookup resolves each leaf with a format's
// own LookupSteps walk (bsonlite in mongosim, jsonblite in pgsim, boxed
// values in jqsim). Every format gets the same transformations, all
// semantics-preserving (leaf evaluation is pure, so AND/OR operand order and
// eager path resolution cannot change results):
//
//   - comparison leaves are constant-folded: operators specialise into
//     dedicated closures, EXISTS on the root folds to true, size comparisons
//     that no length can satisfy fold to false, and folded constants
//     propagate through AND/OR;
//   - AND/OR children are ordered by a static cost model so cheap
//     existence/type checks run before string prefix/equality work and
//     short-circuit the expensive half away;
//   - every node carries its shard-prune proof (prune.go).
package query

import (
	"strings"
	"sync"

	"github.com/joda-explore/betze/internal/jsonval"
)

// LeafValue is the value found at a leaf path, as one document
// representation presents it: a parsed jsonval node, an undecoded bsonlite
// or jsonblite value, a boxed value. Each accessor reports false (or
// ok == false) for a value of another kind.
type LeafValue interface {
	Kind() jsonval.Kind
	Number() (float64, bool)
	Bool() (bool, bool)
	EqualString(s string) bool
	HasPrefix(prefix string) bool
	// Len is the element or member count of an array or object.
	Len() (int, bool)
}

// pathResolver is one document representation's path lookup. D is what one
// evaluation receives per document.
type pathResolver[D any, V LeafValue] interface {
	// leaf registers steps at compile time and returns the leaf's
	// per-document evaluation: false when the path is absent, test of the
	// value found otherwise.
	leaf(steps []string, test func(V) bool) func(D) bool
	// decode materialises the document for leaf types the compiler does not
	// know.
	decode(D) jsonval.Value
}

// Static leaf costs for operand ordering. Only the relative order matters:
// existence and type checks are cheapest, numeric comparisons add a kind
// dispatch, string equality compares payload bytes, and prefix matching is
// the closest thing BETZE has to regex-like work. Each path step adds a
// field walk on top.
const (
	costStep     = 2
	costExists   = 1
	costTypeOnly = 1
	costNumeric  = 2
	costSize     = 2
	costStrEq    = 4
	costPrefix   = 6
	costBranch   = 1
)

// compiled is what one compilation yields for any representation: the
// per-document evaluation (nil matches everything), the shard-prune proof,
// and the static cost.
type compiled[D any] struct {
	Prune
	fn   func(D) bool
	cost int
}

// Cost reports the static cost estimate of one evaluation, the quantity the
// compiler minimises front-to-back when ordering AND/OR operands. Exposed
// for tests and tooling; the unit is arbitrary.
func (c compiled[D]) Cost() int { return c.cost }

// compile compiles p over paths. A nil predicate matches everything.
func compile[D any, V LeafValue](p Predicate, paths pathResolver[D, V]) compiled[D] {
	if p == nil {
		return compiled[D]{}
	}
	n := compileNode(paths, p)
	if n.isConst {
		konst := n.constVal
		return compiled[D]{Prune: Prune{constPrune(konst)}, fn: func(D) bool { return konst }}
	}
	return compiled[D]{Prune: Prune{n.prune}, fn: n.fn, cost: n.cost}
}

// node is one compiled subtree: either a closure with a cost, or a folded
// constant. prune, when non-nil, is the subtree's shard-prune proof (see
// prune.go); a nil prune means the subtree can never rule a shard out.
type node[D any] struct {
	fn       func(D) bool
	prune    pruneFunc
	cost     int
	isConst  bool
	constVal bool
}

func constNode[D any](v bool) node[D] { return node[D]{isConst: true, constVal: v} }

// compileNode compiles one subtree, registering leaf paths with paths.
func compileNode[D any, V LeafValue](paths pathResolver[D, V], p Predicate) node[D] {
	switch n := p.(type) {
	case And:
		return combine(compileNode(paths, n.Left), compileNode(paths, n.Right), false)
	case Or:
		return combine(compileNode(paths, n.Left), compileNode(paths, n.Right), true)
	default:
		return compileLeaf(paths, p)
	}
}

// combine joins two compiled operands into an AND (isOr false) or an OR. A
// constant operand either decides the node (false under AND, true under OR)
// or drops out.
func combine[D any](l, r node[D], isOr bool) node[D] {
	if l.isConst {
		if l.constVal == isOr {
			return constNode[D](isOr)
		}
		return r
	}
	if r.isConst {
		if r.constVal == isOr {
			return constNode[D](isOr)
		}
		return l
	}
	// Cheap operand first; strict inequality keeps equal-cost operands in
	// source order, so compilation is deterministic.
	if r.cost < l.cost {
		l, r = r, l
	}
	lf, rf := l.fn, r.fn
	n := node[D]{cost: l.cost + r.cost + costBranch}
	if isOr {
		n.fn = func(d D) bool { return lf(d) || rf(d) }
		// A disjunction is only provably empty when both halves are.
		n.prune = andPrune(l.prune, r.prune)
	} else {
		n.fn = func(d D) bool { return lf(d) && rf(d) }
		// Either operand alone can prove the conjunction empty.
		n.prune = orPrune(l.prune, r.prune)
	}
	return n
}

// compileLeaf is the leaf table: it specialises one leaf into a pure test of
// the value its path resolves to. Unknown leaf types (external Predicate
// implementations) are evaluated on the decoded document, so compilation
// stays total.
func compileLeaf[D any, V LeafValue](paths pathResolver[D, V], p Predicate) node[D] {
	switch n := p.(type) {
	case Exists:
		if len(n.Path.Steps()) == 0 {
			// EXISTS('/') — the root always exists.
			return constNode[D](true)
		}
		return pathLeaf(paths, costExists, n.Path, zoneExists, func(V) bool { return true })
	case IsString:
		return pathLeaf(paths, costTypeOnly, n.Path, zoneIsString, func(v V) bool { return v.Kind() == jsonval.String })
	case IntEq:
		want := float64(n.Value)
		return pathLeaf(paths, costNumeric, n.Path, zoneNumCmp(Eq, want), func(v V) bool {
			f, ok := v.Number()
			return ok && f == want
		})
	case FloatCmp:
		test := compileCmp(n.Op, n.Value)
		if test == nil {
			// Unknown operators hold for nothing, matching CmpOp.Holds.
			return constNode[D](false)
		}
		return pathLeaf(paths, costNumeric, n.Path, zoneNumCmp(n.Op, n.Value), func(v V) bool {
			f, ok := v.Number()
			return ok && test(f)
		})
	case StrEq:
		want := n.Value
		return pathLeaf(paths, costStrEq, n.Path, zoneStrEq(want), func(v V) bool { return v.EqualString(want) })
	case HasPrefix:
		if n.Prefix == "" {
			// Every string has the empty prefix: fold to a type check.
			return compileLeaf(paths, IsString{Path: n.Path})
		}
		prefix := n.Prefix
		return pathLeaf(paths, costPrefix, n.Path, zoneHasPrefix(prefix), func(v V) bool { return v.HasPrefix(prefix) })
	case BoolEq:
		want := n.Value
		return pathLeaf(paths, costTypeOnly, n.Path, zoneBoolEq(want), func(v V) bool {
			b, ok := v.Bool()
			return ok && b == want
		})
	case ArrSize:
		if neverHoldsForLen(n.Op, n.Value) {
			return constNode[D](false)
		}
		return pathLeaf(paths, costSize, n.Path, zoneArrSize(n.Op, n.Value), sizeTest[V](jsonval.Array, n.Op, n.Value))
	case ObjSize:
		if neverHoldsForLen(n.Op, n.Value) {
			return constNode[D](false)
		}
		return pathLeaf(paths, costSize, n.Path, zoneObjSize(n.Op, n.Value), sizeTest[V](jsonval.Object, n.Op, n.Value))
	default:
		// External leaf types keep their interpreted behaviour. Their prune
		// stays nil: nothing is known about what they match, so no shard can
		// ever be proved empty through them.
		return node[D]{fn: func(d D) bool { return p.Eval(paths.decode(d)) }, cost: costPrefix}
	}
}

// pathLeaf assembles a leaf node around a pure test of the value found at
// path. The resolver decides how the value is found; the leaf's prune proof
// consults the zone map, never the resolver.
func pathLeaf[D any, V LeafValue](paths pathResolver[D, V], opCost int, path jsonval.Path, ztest zoneTest, test func(V) bool) node[D] {
	steps := path.Steps()
	return node[D]{fn: paths.leaf(steps, test), prune: pruneAt(path, ztest), cost: opCost + costStep*len(steps)}
}

// sizeTest is the ARRSIZE/OBJSIZE test: a value of the given kind whose
// length satisfies the comparison. op is known (neverHoldsForLen folds the
// rest).
func sizeTest[V LeafValue](kind jsonval.Kind, op CmpOp, want int) func(V) bool {
	cmp := compileCmp(op, want)
	return func(v V) bool {
		if v.Kind() != kind {
			return false
		}
		l, ok := v.Len()
		return ok && cmp(l)
	}
}

// Matcher is a predicate compiled by CompileLookup for documents of type T.
// An evaluation keeps a lookup or decode error it meets for Match to return,
// so a Matcher serves one goroutine at a time.
type Matcher[T any] struct {
	compiled[T]
	err *error
}

// CompileLookup compiles p for a storage format that resolves every
// evaluated leaf with its own path walk: lookup resolves pre-split path
// steps in a document (ok false when absent), and decode materialises a
// document for leaf types the compiler does not know.
func CompileLookup[T any, V LeafValue](p Predicate, lookup func(T, []string) (V, bool, error), decode func(T) (jsonval.Value, error)) Matcher[T] {
	r := &lookupResolver[T, V]{lookup: lookup, decodeDoc: decode}
	return Matcher[T]{compiled: compile[T, V](p, r), err: &r.err}
}

// Match reports whether doc passes the predicate. A document a lookup or
// decode fails on yields the error instead of a verdict.
func (m Matcher[T]) Match(doc T) (bool, error) {
	if m.fn == nil {
		return true, nil
	}
	ok := m.fn(doc)
	if err := *m.err; err != nil {
		*m.err = nil
		return false, err
	}
	return ok, nil
}

// lookupResolver is CompileLookup's resolver. A failed lookup reads as an
// absent path, so the evaluation finishes, and the error waits in err.
type lookupResolver[T any, V LeafValue] struct {
	lookup    func(T, []string) (V, bool, error)
	decodeDoc func(T) (jsonval.Value, error)
	err       error
}

func (r *lookupResolver[T, V]) leaf(steps []string, test func(V) bool) func(T) bool {
	return func(doc T) bool {
		v, ok, err := r.lookup(doc, steps)
		if err != nil {
			r.err = err
			return false
		}
		return ok && test(v)
	}
}

func (r *lookupResolver[T, V]) decode(doc T) jsonval.Value {
	v, err := r.decodeDoc(doc)
	if err != nil {
		r.err = err
	}
	return v
}

// CompiledPredicate is a predicate compiled by Compile for parsed jsonval
// documents. The zero value — and Compile(nil) — matches every document,
// mirroring a nil Filter.
type CompiledPredicate struct {
	compiled[*scratch]
	slots int // trie nodes: the scratch slots one evaluation uses
}

// Compile compiles p for parsed documents, resolving its leaf paths through
// one shared path trie. Compiling a nil predicate yields the
// match-everything compiled form.
func Compile(p Predicate) CompiledPredicate {
	var b trieBuilder
	c := CompiledPredicate{compiled: compile[*scratch, valueRef](p, &b)}
	if b.res != nil {
		c.slots = len(b.res.nodes)
	}
	return c
}

// Eval reports whether doc passes the predicate. It borrows a pooled scratch
// for the evaluation's path memoisation and returns it afterwards — no
// per-call allocation once the pool is warm.
func (c CompiledPredicate) Eval(doc jsonval.Value) bool {
	if c.fn == nil {
		return true
	}
	sc := scratchPool.Get().(*scratch)
	if cap(sc.slots) < c.slots {
		sc.slots = make([]slotVal, c.slots)
	}
	sc.slots = sc.slots[:cap(sc.slots)]
	sc.gen++
	sc.docv = doc
	sc.doc = &sc.docv
	ok := c.fn(sc)
	scratchPool.Put(sc)
	return ok
}

// Evaluator returns a reusable single-goroutine evaluator for the compiled
// predicate. It owns its scratch outright, so a scan loop that evaluates the
// same predicate over many documents skips Eval's per-document pool
// round-trip and copy. Not safe for concurrent use: give each scan worker
// its own.
func (c CompiledPredicate) Evaluator() *Evaluator {
	e := &Evaluator{fn: c.fn}
	e.sc.slots = make([]slotVal, c.slots)
	return e
}

// Evaluator is a compiled predicate bound to a private scratch. The zero
// value is not useful; obtain one from CompiledPredicate.Evaluator.
type Evaluator struct {
	fn func(*scratch) bool
	sc scratch
}

// EvalAt reports whether *doc passes the predicate, reading the document in
// place: doc must stay unmodified until EvalAt returns. This is the entry
// point for scan loops that index a document slice.
func (e *Evaluator) EvalAt(doc *jsonval.Value) bool {
	if e.fn == nil {
		return true
	}
	e.sc.gen++
	e.sc.doc = doc
	return e.fn(&e.sc)
}

// EvalBlock evaluates one whole block of documents in a single call,
// writing per-document verdicts into keep (which must be at least
// len(docs) long) and returning the match count: one indirect call per
// shard instead of one per document, with the per-document loop reduced to
// a generation bump, a pointer store and the compiled closure. Allocates
// nothing.
//
// No production caller (scans call EvalAt per document and keep no verdict
// buffer); kept for benchmark/replay.go until a benchmark PR drops the row.
func (e *Evaluator) EvalBlock(docs []jsonval.Value, keep []bool) int {
	if len(keep) < len(docs) {
		panic("query: EvalBlock keep buffer shorter than the document block")
	}
	if e.fn == nil {
		for i := range docs {
			keep[i] = true
		}
		return len(docs)
	}
	sc, fn := &e.sc, e.fn
	matched := 0
	for i := range docs {
		sc.gen++
		sc.doc = &docs[i]
		ok := fn(sc)
		keep[i] = ok
		if ok {
			matched++
		}
	}
	return matched
}

// valueRef is a node of a parsed document seen as a LeafValue.
type valueRef struct{ v *jsonval.Value }

func (r valueRef) is(k jsonval.Kind) bool    { return r.v.Kind() == k }
func (r valueRef) Kind() jsonval.Kind        { return r.v.Kind() }
func (r valueRef) Number() (float64, bool)   { return r.v.Number() }
func (r valueRef) Bool() (bool, bool)        { return r.is(jsonval.Bool) && r.v.Bool(), r.is(jsonval.Bool) }
func (r valueRef) EqualString(s string) bool { return r.is(jsonval.String) && r.v.Str() == s }
func (r valueRef) Len() (int, bool)          { return r.v.Len(), r.is(jsonval.Array) || r.is(jsonval.Object) }

func (r valueRef) HasPrefix(prefix string) bool {
	return r.is(jsonval.String) && strings.HasPrefix(r.v.Str(), prefix)
}

// The path trie is Compile's resolver: every distinct leaf path of a
// predicate is merged into one trie, and leaves resolve lazily through it
// with per-evaluation memoisation, sharing one resumable member scan per
// object level (key-hash masks reject non-candidate members with a few ANDs)
// that stamps every sibling path it passes and stops at the one requested.
// So N leaves over the same object pay at most one scan between them, and
// members past the last sibling a short-circuited evaluation asks for are
// never visited. Paths that cannot join the trie (node fan-out overflow)
// resolve with their own jsonval.LookupSteps walk.
//
// The trie stays because it is what keeps NoBench generation fast. On a
// 2-core Intel Xeon, sending every leaf through a plain LookupSteps walk
// instead made the benchmark's generate_ms_per_query on nobench-aggregate
// go from 2.35 ms to 3.56 ms (every one of 4 alternating pairs 1.26–1.81×
// worse), and an eager trie that scans each level once per evaluation was
// 2–6× slower per evaluation on generated filters. The plain walk was
// 1.2–2.9× faster on Twitter and Reddit session filters, so choosing one per
// predicate is open.

// maxTrieEdges bounds the fan-out of one path-trie node: the single-walk
// resolver tracks which edges matched in a per-walk uint64 bitmask, so a
// node that would grow a 65th edge stops accepting slots and the overflowing
// leaves fall back to their own LookupSteps walk. Generated predicates never
// come close (a tree has at most a few dozen leaves in total).
const maxTrieEdges = 64

// scratch is the per-evaluation slot buffer, pooled so Eval allocates
// nothing in steady state. Slot validity is generation-stamped instead of
// cleared: a slot is meaningful only when its gen matches the scratch's
// current gen, so reusing a pooled scratch needs no per-eval zeroing.
type scratch struct {
	doc      *jsonval.Value // the document under evaluation
	docv     jsonval.Value  // copy buffer for CompiledPredicate.Eval
	gen      uint64
	rootGen  uint64 // rootScan is initialised for this gen
	rootScan scanState
	slots    []slotVal
}

// slotVal memoises one trie node for the current evaluation. v points into
// the document being evaluated (documents are immutable and outlive the
// evaluation); a stamped slot with v == nil records a known-absent path, so
// misses are memoised as cheaply as hits.
type slotVal struct {
	v       *jsonval.Value
	gen     uint64 // v (possibly nil = absent) is valid for this gen
	scanGen uint64 // scan is initialised for this gen
	scan    scanState
}

// scanState is the resumable position of one node's member scan within the
// current evaluation. The scan over an object's members stops as soon as the
// requested child is stamped; when a later leaf asks for another sibling the
// scan picks up at pos instead of restarting, so across the whole evaluation
// each member is still visited at most once — but members past the last
// sibling a short-circuited evaluation actually asked for are never touched.
type scanState struct {
	pos       int32  // next member index to visit
	remaining int32  // unmatched children
	matched   uint64 // edges already stamped (first match wins, as Value.Field)
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// resolver is the compiled path trie: every distinct leaf path is a node,
// identified by its index, and that index doubles as the node's slot in the
// per-evaluation scratch. It is immutable after Compile and safe for
// concurrent evaluations (per-evaluation state lives in the scratch).
type resolver struct {
	nodes []pathNode
	root  kidSet
}

// pathNode is one step of one path.
type pathNode struct {
	parent int32 // -1 when the step applies to the document root
	edge   int32 // this node's index within its parent's kidSet
	key    string
	kids   kidSet
}

// kidSet is the set of child steps under one trie node, laid out for the
// batch scan: keys is parallel to kids so the scan's inner loop touches one
// flat string slice, and the two independent hash masks reject a
// non-candidate member with two shifts and two ANDs (one mask alone passes
// too many of a large object's members; two cut false positives
// quadratically). That filter is what makes the batch scan cheaper than
// per-leaf Field walks.
type kidSet struct {
	kids    []int32
	keys    []string
	sigs    []uint16 // keyHash<<8 | keyHash2, one integer compare per candidate
	lenMask uint64
	mask    uint64
	mask2   uint64
}

func (ks *kidSet) add(idx int32, key string) {
	ks.kids = append(ks.kids, idx)
	ks.keys = append(ks.keys, key)
	ks.sigs = append(ks.sigs, uint16(keyHash(key))<<8|uint16(keyHash2(key)))
	ks.lenMask |= 1 << (uint(len(key)) & 63)
	ks.mask |= 1 << keyHash(key)
	ks.mask2 |= 1 << keyHash2(key)
}

// keyHash maps a member key to its mask bit. Length alone collides too
// often on real datasets (Twitter objects have many same-length keys);
// folding in the first byte makes misses the overwhelmingly common case.
func keyHash(key string) uint {
	h := uint(len(key))
	if len(key) > 0 {
		h += uint(key[0]) << 1
	}
	return h & 63
}

// keyHash2 is the second, independent filter bit: the last (up to) four
// bytes and the length, mixed multiplicatively, so sparse_000…sparse_999
// (one length, one first byte) spread over the mask.
func keyHash2(key string) uint {
	var v uint32
	if n := len(key); n >= 4 {
		v = uint32(key[n-4]) | uint32(key[n-3])<<8 | uint32(key[n-2])<<16 | uint32(key[n-1])<<24
	} else if n > 0 {
		v = uint32(key[0]) | uint32(key[n-1])<<8
	}
	return uint((v ^ uint32(len(key))) * 0x9E3779B1 >> 26)
}

// resolve returns the value at node idx inside doc, nil when the path is
// absent. A request for a child of an object advances that object's shared
// member scan just far enough to stamp the requested slot, stamping every
// sibling path it passes on the way and memoising the position, so each
// object level is scanned at most once per evaluation no matter how many
// leaves read it — and members (or whole subtrees) the short-circuiting
// boolean evaluation never reaches are never scanned.
func (r *resolver) resolve(sc *scratch, idx int32) *jsonval.Value {
	s := &sc.slots[idx]
	if s.gen == sc.gen {
		return s.v
	}
	n := &r.nodes[idx]
	if p := n.parent; p < 0 {
		if sc.rootGen != sc.gen {
			sc.rootScan = scanState{remaining: int32(len(r.root.kids))}
			sc.rootGen = sc.gen
		}
		advance(sc.doc, sc, &r.root, &sc.rootScan, n.edge)
	} else {
		pv := r.resolve(sc, p)
		ps := &sc.slots[p]
		if ps.scanGen != sc.gen {
			ps.scan = scanState{remaining: int32(len(r.nodes[p].kids.kids))}
			ps.scanGen = sc.gen
		}
		advance(pv, sc, &r.nodes[p].kids, &ps.scan, n.edge)
	}
	return s.v
}

// advance moves one object's member scan forward until the child at target is
// stamped, stamping every other child it passes. Matching mirrors Value.Field
// exactly: members are visited in order and the first member with a given key
// wins (the matched bitmask ignores later duplicates). When the scan exhausts
// the members — or v is nil or not an object — every still-unmatched child is
// stamped known-absent, so absences are memoised as cheaply as hits.
// Stamping a child's slot resets its own scanGen, which is correct because a
// child's scan can only have started after the child was stamped.
func advance(v *jsonval.Value, sc *scratch, ks *kidSet, st *scanState, target int32) {
	if v != nil && v.Kind() == jsonval.Object && st.remaining > 0 {
		obj := v.Members()
		if len(ks.kids) == 1 {
			// One child: a plain Field-style scan beats hashing every member.
			want := ks.keys[0]
			for i := range obj {
				if obj[i].Key == want {
					s := &sc.slots[ks.kids[0]]
					s.v, s.gen = &obj[i].Value, sc.gen
					st.remaining = 0
					return
				}
			}
		} else {
			keys, sigs := ks.keys, ks.sigs
			for i := int(st.pos); i < len(obj); i++ {
				key := obj[i].Key
				// The length mask needs no pointer chase (the length is in
				// the string header); only survivors pay the byte loads of
				// the two hash masks.
				if ks.lenMask&(1<<(uint(len(key))&63)) == 0 {
					continue
				}
				h1, h2 := keyHash(key), keyHash2(key)
				if ks.mask&(1<<h1) == 0 || ks.mask2&(1<<h2) == 0 {
					continue
				}
				// Candidates are rejected on their precomputed hash signature
				// before any key bytes are compared.
				sig := uint16(h1)<<8 | uint16(h2)
				for e := 0; e < len(sigs); e++ {
					if sigs[e] != sig || st.matched&(1<<uint(e)) != 0 || keys[e] != key {
						continue
					}
					st.matched |= 1 << uint(e)
					st.remaining--
					// Field stores, not a composite literal: the slot's own
					// scan state needs no clearing (scanGen is gen-guarded),
					// and a whole-struct store would write it anyway.
					s := &sc.slots[ks.kids[e]]
					s.v, s.gen = &obj[i].Value, sc.gen
					if int32(e) == target || st.remaining == 0 {
						st.pos = int32(i) + 1
						return
					}
					break
				}
			}
			st.pos = int32(len(obj))
		}
	}
	// The scan is exhausted (or there was nothing to scan): everything still
	// unmatched is known-absent.
	for e, k := range ks.kids {
		if st.matched&(1<<uint(e)) == 0 {
			s := &sc.slots[k]
			s.v, s.gen = nil, sc.gen
		}
	}
	st.matched = 1<<uint(len(ks.kids)) - 1
	st.remaining = 0
}

// trieBuilder accumulates leaf paths during compilation, deduplicating
// exact paths onto shared trie nodes. Child lookup is linear: the trie is
// tiny and built once per query, and avoiding maps keeps node numbering
// trivially deterministic.
type trieBuilder struct {
	res *resolver
}

// slotFor returns the trie-node index for steps, inserting nodes as needed.
// ok is false when a node on the way is already at maxTrieEdges, in which
// case the caller's leaf resolves its own path.
func (b *trieBuilder) slotFor(steps []string) (int32, bool) {
	if b.res == nil {
		b.res = &resolver{}
	}
	r := b.res
	parent := int32(-1)
	for _, step := range steps {
		kids := r.root.kids
		if parent >= 0 {
			kids = r.nodes[parent].kids.kids
		}
		found := int32(-1)
		for _, k := range kids {
			if r.nodes[k].key == step {
				found = k
				break
			}
		}
		if found < 0 {
			if len(kids) >= maxTrieEdges {
				return 0, false
			}
			r.nodes = append(r.nodes, pathNode{parent: parent, edge: int32(len(kids)), key: step})
			found = int32(len(r.nodes) - 1)
			if parent >= 0 {
				r.nodes[parent].kids.add(found, step)
			} else {
				r.root.add(found, step)
			}
		}
		parent = found
	}
	return parent, true
}

// leaf implements pathResolver: root-path leaves test the document itself,
// slot leaves — the hot case — the value memoised in the trie, and
// trie-overflow leaves walk their own path.
func (b *trieBuilder) leaf(steps []string, test func(valueRef) bool) func(*scratch) bool {
	if len(steps) == 0 {
		return func(sc *scratch) bool { return test(valueRef{sc.doc}) }
	}
	if idx, ok := b.slotFor(steps); ok {
		res := b.res
		return func(sc *scratch) bool {
			v := leafValue(sc, res, idx)
			return v != nil && test(valueRef{v})
		}
	}
	return func(sc *scratch) bool {
		v, ok := jsonval.LookupSteps(*sc.doc, steps)
		return ok && test(valueRef{&v})
	}
}

// decode implements pathResolver: the document is already parsed.
func (*trieBuilder) decode(sc *scratch) jsonval.Value { return *sc.doc }

// leafValue returns the memoised — or, on a generation miss, freshly
// resolved — value at trie node idx; nil means the path is absent. Small
// enough for the inliner, so slot closures get the memo check inline and pay
// a plain direct call only when the resolver must actually advance.
func leafValue(sc *scratch, res *resolver, idx int32) *jsonval.Value {
	if s := &sc.slots[idx]; s.gen == sc.gen {
		return s.v
	}
	return res.resolve(sc, idx)
}

// compileCmp specialises "x op want" into its own closure, removing the
// per-document operator switch. Unknown operators return nil.
func compileCmp[N int | float64](op CmpOp, want N) func(N) bool {
	switch op {
	case Lt:
		return func(x N) bool { return x < want }
	case Le:
		return func(x N) bool { return x <= want }
	case Gt:
		return func(x N) bool { return x > want }
	case Ge:
		return func(x N) bool { return x >= want }
	case Eq:
		return func(x N) bool { return x == want }
	default:
		return nil
	}
}

// neverHoldsForLen reports whether "len op want" is unsatisfiable for any
// length ≥ 0, letting size leaves fold to constant false. Unknown operators
// hold for nothing, matching CmpOp.HoldsInt.
func neverHoldsForLen(op CmpOp, want int) bool {
	switch op {
	case Lt:
		return want <= 0
	case Le, Eq:
		return want < 0
	case Gt, Ge:
		return false
	default:
		return true
	}
}
