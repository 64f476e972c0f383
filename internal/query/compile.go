// Compiled predicate execution. Compile flattens a Predicate tree into
// allocation-free closures once per query, so the per-document hot path of a
// scan pays no interface dispatch, no path re-splitting and no operator
// switches. The paper's evaluation (Fig. 8–9, Table II) measures engines by
// per-query latency over generated sessions; this layer is where the
// reproduction spends that latency, so it is compiled rather than
// interpreted.
//
// Four transformations happen at compile time, all semantics-preserving
// (leaf evaluation is pure, so AND/OR operand order and eager path
// resolution cannot change results):
//
//   - every distinct leaf path is merged into one path trie; leaves
//     resolve lazily through it with per-evaluation memoisation, sharing one
//     resumable member scan per object level (key-hash masks reject
//     non-candidate members with a few ANDs) that stamps every sibling path
//     it passes and stops at the one requested, so N leaves over the same
//     object pay at most one scan between them, and members past the last
//     sibling a short-circuited evaluation asks for are never visited;
//   - paths that cannot join the trie (node fan-out overflow) are still
//     pre-resolved to step slices (jsonval.Path.Steps), making their
//     per-document lookup a plain field walk (jsonval.LookupSteps);
//   - comparison leaves are constant-folded: operators specialise into
//     dedicated closures, EXISTS on the root folds to true, size comparisons
//     that no length can satisfy fold to false, and folded constants
//     propagate through AND/OR;
//   - AND/OR children are ordered by a static cost model so cheap
//     existence/type checks run before string prefix/equality work and
//     short-circuit the expensive half away.
package query

import (
	"sync"

	"github.com/joda-explore/betze/internal/jsonval"
)

// evalFunc is one compiled node: a pure per-document evaluator. The
// document travels inside the scratch (sc.doc) rather than as a parameter:
// a jsonval.Value is ~90 bytes, and passing it by value through every
// AND/OR/leaf closure of a tree would copy it once per node per document.
type evalFunc func(sc *scratch) bool

// leafTest is a pure check of the value found at a leaf's path; v is nil
// when the path is absent.
type leafTest func(v *jsonval.Value) bool

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
	docv     jsonval.Value  // copy buffer for by-value entry points
	gen      uint64
	rootGen  uint64 // rootScan is initialised for this gen
	rootScan scanState
	slots    []slotVal
}

// setDoc points the scratch at doc for the next evaluation. The by-value
// entry points copy into the buffer first; Evaluator.EvalAt skips the copy.
func (sc *scratch) setDoc(doc jsonval.Value) {
	sc.docv = doc
	sc.doc = &sc.docv
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

// keyHash2 is the second, independent filter bit: last byte and length.
func keyHash2(key string) uint {
	h := uint(len(key)) * 3
	if len(key) > 0 {
		h += uint(key[len(key)-1])
	}
	return h & 63
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

// frozen returns the built resolver, or nil when no leaf claimed a slot.
func (b *trieBuilder) frozen() *resolver {
	if b.res == nil || len(b.res.nodes) == 0 {
		return nil
	}
	return b.res
}

// CompiledPredicate is the compiled form of a filter tree. The zero value —
// and Compile(nil) — matches every document, mirroring a nil Filter.
// CompiledPredicate itself implements Predicate (String renders the source
// tree in canonical syntax), so compiled and interpreted forms stay
// interchangeable in tests and tools.
type CompiledPredicate struct {
	fn   evalFunc
	pfn  pruneFunc
	res  *resolver
	cost int
	src  Predicate
}

// Compile flattens the predicate tree into allocation-free closures with
// pre-resolved paths, folded constants, cost-ordered AND/OR operands, and a
// shared single-walk resolver over every distinct leaf path. Compiling a nil
// predicate yields the match-everything compiled form.
func Compile(p Predicate) CompiledPredicate {
	if p == nil {
		return CompiledPredicate{}
	}
	var b trieBuilder
	n := compileNode(&b, p)
	if n.isConst {
		konst := n.constVal
		return CompiledPredicate{
			fn:   func(*scratch) bool { return konst },
			pfn:  constPrune(konst),
			cost: 0,
			src:  p,
		}
	}
	return CompiledPredicate{fn: n.fn, pfn: n.prune, res: b.frozen(), cost: n.cost, src: p}
}

// Eval implements Predicate. A zero CompiledPredicate matches everything.
// Trees with slot leaves borrow a pooled scratch for the evaluation's path
// memoisation and return it afterwards — no per-call allocation once the
// pool is warm.
func (c CompiledPredicate) Eval(doc jsonval.Value) bool {
	if c.fn == nil {
		return true
	}
	sc := scratchPool.Get().(*scratch)
	if c.res != nil {
		if n := len(c.res.nodes); cap(sc.slots) < n {
			sc.slots = make([]slotVal, n)
		}
		sc.slots = sc.slots[:cap(sc.slots)]
	}
	sc.gen++
	sc.setDoc(doc)
	ok := c.fn(sc)
	scratchPool.Put(sc)
	return ok
}

// Evaluator returns a reusable single-goroutine evaluator for the compiled
// predicate. It owns its scratch outright, so a scan loop that evaluates the
// same predicate over many documents skips Eval's per-document pool
// round-trip. Not safe for concurrent use: give each scan worker its own.
func (c CompiledPredicate) Evaluator() *Evaluator {
	e := &Evaluator{fn: c.fn}
	if c.res != nil {
		e.sc.slots = make([]slotVal, len(c.res.nodes))
	}
	return e
}

// Evaluator is a compiled predicate bound to a private scratch. The zero
// value is not useful; obtain one from CompiledPredicate.Evaluator.
type Evaluator struct {
	fn evalFunc
	sc scratch
}

// Eval reports whether doc passes the predicate, like
// CompiledPredicate.Eval.
func (e *Evaluator) Eval(doc jsonval.Value) bool {
	if e.fn == nil {
		return true
	}
	e.sc.gen++
	e.sc.setDoc(doc)
	return e.fn(&e.sc)
}

// EvalAt is Eval without the copy-in: the evaluation reads the document
// through doc, which must stay unmodified until EvalAt returns. This is the
// entry point for scan loops that index a document slice — a jsonval.Value
// is ~90 bytes, and at millions of documents per second the per-document
// copy is measurable.
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

// Matches reports whether doc passes the compiled filter; it is Eval under
// the name engines use for whole-query matching.
func (c CompiledPredicate) Matches(doc jsonval.Value) bool { return c.Eval(doc) }

// Source returns the predicate the compiled form was built from (nil for the
// zero value).
func (c CompiledPredicate) Source() Predicate { return c.src }

// Cost reports the static cost estimate of one evaluation, the quantity the
// compiler minimises front-to-back when ordering AND/OR operands. Exposed
// for tests and tooling; the unit is arbitrary.
func (c CompiledPredicate) Cost() int { return c.cost }

// String implements Predicate by rendering the source tree's canonical form,
// so compiled predicates keep working as cache keys and display strings.
func (c CompiledPredicate) String() string {
	if c.src == nil {
		return "TRUE"
	}
	return c.src.String()
}

// node is one compiled subtree: either a closure with a cost, or a folded
// constant. prune, when non-nil, is the subtree's shard-prune proof (see
// prune.go); a nil prune means the subtree can never rule a shard out.
type node struct {
	fn       evalFunc
	prune    pruneFunc
	cost     int
	isConst  bool
	constVal bool
}

func constNode(v bool) node { return node{isConst: true, constVal: v} }

// compileNode compiles one subtree, registering leaf paths with b.
func compileNode(b *trieBuilder, p Predicate) node {
	switch n := p.(type) {
	case And:
		l, r := compileNode(b, n.Left), compileNode(b, n.Right)
		if l.isConst {
			if !l.constVal {
				return constNode(false)
			}
			return r
		}
		if r.isConst {
			if !r.constVal {
				return constNode(false)
			}
			return l
		}
		// Cheap operand first; strict inequality keeps equal-cost operands
		// in source order, so compilation is deterministic.
		if r.cost < l.cost {
			l, r = r, l
		}
		lf, rf := l.fn, r.fn
		return node{
			fn: func(sc *scratch) bool { return lf(sc) && rf(sc) },
			// Either operand alone can prove the conjunction empty.
			prune: orPrune(l.prune, r.prune),
			cost:  l.cost + r.cost + costBranch,
		}
	case Or:
		l, r := compileNode(b, n.Left), compileNode(b, n.Right)
		if l.isConst {
			if l.constVal {
				return constNode(true)
			}
			return r
		}
		if r.isConst {
			if r.constVal {
				return constNode(true)
			}
			return l
		}
		if r.cost < l.cost {
			l, r = r, l
		}
		lf, rf := l.fn, r.fn
		return node{
			fn: func(sc *scratch) bool { return lf(sc) || rf(sc) },
			// A disjunction is only provably empty when both halves are.
			prune: andPrune(l.prune, r.prune),
			cost:  l.cost + r.cost + costBranch,
		}
	case CompiledPredicate:
		// An already-compiled subtree is recompiled from its source so its
		// leaves join this tree's resolver (slot indices are per-compilation;
		// splicing the inner closure would read the wrong scratch). Compile
		// stays idempotent over its own output: same source, same result.
		if n.src == nil {
			return constNode(true)
		}
		return compileNode(b, n.src)
	default:
		return compileLeaf(b, p)
	}
}

// compileLeaf specialises one leaf into a pure test over its resolved value,
// attached to a slot in the shared resolver. Unknown leaf types (external
// Predicate implementations) fall back to their own Eval so Compile stays
// total.
func compileLeaf(b *trieBuilder, p Predicate) node {
	switch n := p.(type) {
	case Exists:
		if len(n.Path.Steps()) == 0 {
			// EXISTS('/') — the root always exists.
			return constNode(true)
		}
		return pathLeaf(b, costExists, n.Path, zoneExists, func(v *jsonval.Value) bool { return v != nil })
	case IsString:
		return pathLeaf(b, costTypeOnly, n.Path, zoneIsString, func(v *jsonval.Value) bool {
			return v != nil && v.Kind() == jsonval.String
		})
	case IntEq:
		want := float64(n.Value)
		return pathLeaf(b, costNumeric, n.Path, zoneNumCmp(Eq, want), func(v *jsonval.Value) bool {
			if v == nil {
				return false
			}
			f, ok := v.Number()
			return ok && f == want
		})
	case FloatCmp:
		test := compileFloatTest(n.Op, n.Value)
		if test == nil {
			// Unknown operators hold for nothing, matching CmpOp.Holds.
			return constNode(false)
		}
		return pathLeaf(b, costNumeric, n.Path, zoneNumCmp(n.Op, n.Value), func(v *jsonval.Value) bool {
			if v == nil {
				return false
			}
			f, ok := v.Number()
			return ok && test(f)
		})
	case StrEq:
		want := n.Value
		return pathLeaf(b, costStrEq, n.Path, zoneStrEq(want), func(v *jsonval.Value) bool {
			return v != nil && v.Kind() == jsonval.String && v.Str() == want
		})
	case HasPrefix:
		if n.Prefix == "" {
			// Every string has the empty prefix: fold to a type check.
			return compileLeaf(b, IsString{Path: n.Path})
		}
		prefix := n.Prefix
		return pathLeaf(b, costPrefix, n.Path, zoneHasPrefix(prefix), func(v *jsonval.Value) bool {
			if v == nil || v.Kind() != jsonval.String {
				return false
			}
			s := v.Str()
			return len(s) >= len(prefix) && s[:len(prefix)] == prefix
		})
	case BoolEq:
		want := n.Value
		return pathLeaf(b, costTypeOnly, n.Path, zoneBoolEq(want), func(v *jsonval.Value) bool {
			return v != nil && v.Kind() == jsonval.Bool && v.Bool() == want
		})
	case ArrSize:
		if neverHoldsForLen(n.Op, n.Value) {
			return constNode(false)
		}
		cmp := compileIntCmp(n.Op, n.Value)
		return pathLeaf(b, costSize, n.Path, zoneArrSize(n.Op, n.Value), func(v *jsonval.Value) bool {
			return v != nil && v.Kind() == jsonval.Array && cmp(v.Len())
		})
	case ObjSize:
		if neverHoldsForLen(n.Op, n.Value) {
			return constNode(false)
		}
		cmp := compileIntCmp(n.Op, n.Value)
		return pathLeaf(b, costSize, n.Path, zoneObjSize(n.Op, n.Value), func(v *jsonval.Value) bool {
			return v != nil && v.Kind() == jsonval.Object && cmp(v.Len())
		})
	default:
		// External leaf types keep their interpreted behaviour. Their prune
		// stays nil: nothing is known about what they match, so no shard can
		// ever be proved empty through them.
		return node{fn: func(sc *scratch) bool { return p.Eval(*sc.doc) }, cost: costPrefix}
	}
}

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

// pathLeaf assembles a leaf node around a pure test of the value found at
// path. Root-path leaves test the document itself, slot leaves — the hot
// case — the value memoised in the shared resolver, and trie-overflow leaves
// fall back to a private LookupSteps walk. The leaf's prune proof is the
// same ztest every way: pruning consults the zone map, not the trie.
func pathLeaf(b *trieBuilder, opCost int, path jsonval.Path, ztest zoneTest, test leafTest) node {
	steps := path.Steps()
	n := node{prune: pruneAt(path, ztest), cost: opCost + costStep*len(steps)}
	if len(steps) == 0 {
		n.fn = func(sc *scratch) bool { return test(sc.doc) }
	} else if idx, ok := b.slotFor(steps); ok {
		res := b.res
		n.fn = func(sc *scratch) bool { return test(leafValue(sc, res, idx)) }
	} else {
		n.fn = func(sc *scratch) bool {
			if v, ok := jsonval.LookupSteps(*sc.doc, steps); ok {
				return test(&v)
			}
			return test(nil)
		}
	}
	return n
}

// compileFloatTest specialises the comparison operator into its own closure,
// removing the per-document operator switch. Unknown operators return nil.
func compileFloatTest(op CmpOp, want float64) func(float64) bool {
	switch op {
	case Lt:
		return func(f float64) bool { return f < want }
	case Le:
		return func(f float64) bool { return f <= want }
	case Gt:
		return func(f float64) bool { return f > want }
	case Ge:
		return func(f float64) bool { return f >= want }
	case Eq:
		return func(f float64) bool { return f == want }
	default:
		return nil
	}
}

// compileIntCmp specialises an integer comparison against a constant.
func compileIntCmp(op CmpOp, want int) func(int) bool {
	switch op {
	case Lt:
		return func(l int) bool { return l < want }
	case Le:
		return func(l int) bool { return l <= want }
	case Gt:
		return func(l int) bool { return l > want }
	case Ge:
		return func(l int) bool { return l >= want }
	case Eq:
		return func(l int) bool { return l == want }
	default:
		return func(int) bool { return false }
	}
}

// neverHoldsForLen reports whether "len op want" is unsatisfiable for any
// length ≥ 0, letting size leaves fold to constant false.
func neverHoldsForLen(op CmpOp, want int) bool {
	switch op {
	case Lt:
		return want <= 0
	case Le, Eq:
		return want < 0
	default:
		return false
	}
}
