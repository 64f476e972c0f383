// Shard pruning. A compiled predicate can inspect a shard's zone map — a
// per-shard summary of which paths occur and what values they hold — and
// prove "no document in this shard can match" without touching a single
// document. The proof obligation is one-sided: a prune decision must be
// sound (CanSkip true ⇒ every document evaluates to false), while "cannot
// prune" is always a safe answer. Zone maps therefore only ever OVER-claim
// what a shard contains (extra paths, wider ranges, larger dictionaries are
// all harmless); the one thing they must never do is under-claim, and a zone
// that cannot promise full path coverage reports Complete() == false, which
// disables the absent-path proof.
//
// Prune closures are compiled alongside the eval closures in compile.go:
// AND prunes when either operand prunes, OR only when both do, folded
// constants prune iff the constant is false, and external (unknown) leaf
// types never prune. Per-leaf rules live in the zone* constructors below.
package query

import (
	"sort"
	"strings"

	"github.com/joda-explore/betze/internal/jsonval"
)

// Zone is a shard summary a compiled predicate can consult before a scan.
// Implementations live outside this package (internal/shard builds them);
// the query compiler only consumes them.
type Zone interface {
	// Summary returns the summary of the values found at path — in
	// jsonval.Path canonical form ("/" for the root, "/a/b" below it) —
	// across every document of the shard. ok is false when no document has
	// the path, OR when the zone simply does not index it; only a zone with
	// Complete() == true may be read as "absent everywhere".
	Summary(path string) (PathSummary, bool)
	// Complete reports whether every Lookup-resolvable path of every
	// document in the shard has a Summary entry. Incomplete zones (path or
	// depth caps overflowed) still prune on the entries they do have.
	Complete() bool
}

// KindMask is a bitset of jsonval kinds, one bit per jsonval.Kind value.
type KindMask uint16

// MaskOf returns the mask with only k's bit set.
func MaskOf(k jsonval.Kind) KindMask { return 1 << uint(k) }

// Has reports whether k's bit is set.
func (m KindMask) Has(k jsonval.Kind) bool { return m&MaskOf(k) != 0 }

// HasNumber reports whether any numeric kind is present.
func (m KindMask) HasNumber() bool {
	return m.Has(jsonval.Int) || m.Has(jsonval.Float)
}

// PathSummary summarises every value observed at one path across one shard.
// Range and dictionary fields are only meaningful when the corresponding
// kind bit is set in Kinds: a consumer must check the bit first.
type PathSummary struct {
	// Kinds has a bit set for every value kind observed at the path.
	Kinds KindMask
	// NumMin/NumMax bound every numeric (Int or Float) value, compared as
	// float64 exactly like the numeric predicates do.
	NumMin, NumMax float64
	// ArrMin/ArrMax bound the length of every Array value.
	ArrMin, ArrMax int
	// ObjMin/ObjMax bound the member count of every Object value.
	ObjMin, ObjMax int
	// TrueSeen/FalseSeen record which Bool values occurred.
	TrueSeen, FalseSeen bool
	// Dict holds the distinct String values, sorted ascending, when
	// DictComplete; an overflowed dictionary sets DictComplete false and
	// Dict must then be ignored. Consumers must not mutate the slice.
	Dict         []string
	DictComplete bool
}

// pruneFunc is one compiled prune node: true means "no document in a shard
// described by z can satisfy this subtree" — a proof, never a guess.
type pruneFunc func(z Zone) bool

// zoneTest decides prunability from one path's summary (the path is known
// to occur in the shard when the test runs).
type zoneTest func(s *PathSummary) bool

// Prune is a compiled predicate's shard-prune proof. It depends on the
// predicate alone, not on how documents are stored, so every compiled form
// carries one and scans consult it before touching a shard. The zero Prune
// never skips.
type Prune struct{ fn pruneFunc }

// CanSkip reports whether the zone map proves that no document of the
// summarised shard can match. A nil zone, the match-everything compiled
// form, and predicates with unprunable leaves all answer false — the scan
// then proceeds normally, which is always correct.
func (p Prune) CanSkip(z Zone) bool {
	if p.fn == nil || z == nil {
		return false
	}
	return p.fn(z)
}

// constPrune is the prune form of a folded constant: a predicate that is
// identically false skips every shard, one that is identically true none.
func constPrune(konst bool) pruneFunc {
	return func(Zone) bool { return !konst }
}

// orPrune combines AND operands: either side alone proves the conjunction
// empty. A nil (never-prunes) side drops out instead of poisoning the node.
func orPrune(l, r pruneFunc) pruneFunc {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	return func(z Zone) bool { return l(z) || r(z) }
}

// andPrune combines OR operands: both sides must prove their half empty. If
// either side can never prune, neither can the disjunction.
func andPrune(l, r pruneFunc) pruneFunc {
	if l == nil || r == nil {
		return nil
	}
	return func(z Zone) bool { return l(z) && r(z) }
}

// pruneAt builds the leaf prune closure: resolve the path's summary, let the
// kind-specific test decide. A missing summary proves the path absent from
// every document — which falsifies every leaf kind (all nine predicates
// require the path to exist) — but only a complete zone may say so.
func pruneAt(path jsonval.Path, test zoneTest) pruneFunc {
	key := path.String()
	return func(z Zone) bool {
		s, ok := z.Summary(key)
		if !ok {
			return z.Complete()
		}
		return test(&s)
	}
}

// zoneExists: the summary exists, so some document has the path — EXISTS can
// match and the shard must be scanned.
func zoneExists(*PathSummary) bool { return false }

// zoneIsString prunes when no string value occurs at the path.
func zoneIsString(s *PathSummary) bool { return !s.Kinds.Has(jsonval.String) }

// zoneNumCmp prunes a numeric comparison when the path holds no numbers, or
// when no value in [NumMin, NumMax] can satisfy "value op want".
func zoneNumCmp(op CmpOp, want float64) zoneTest {
	return func(s *PathSummary) bool {
		return !s.Kinds.HasNumber() || !rangeSatisfies(op, s.NumMin, s.NumMax, want)
	}
}

// rangeSatisfies reports whether some x in [lo, hi] satisfies "x op want".
// Unknown operators hold for nothing (CmpOp.Holds), so nothing satisfies.
func rangeSatisfies(op CmpOp, lo, hi, want float64) bool {
	switch op {
	case Lt:
		return lo < want
	case Le:
		return lo <= want
	case Gt:
		return hi > want
	case Ge:
		return hi >= want
	case Eq:
		return lo <= want && want <= hi
	default:
		return false
	}
}

// intRangeSatisfies is rangeSatisfies over integer length bounds.
func intRangeSatisfies(op CmpOp, lo, hi, want int) bool {
	switch op {
	case Lt:
		return lo < want
	case Le:
		return lo <= want
	case Gt:
		return hi > want
	case Ge:
		return hi >= want
	case Eq:
		return lo <= want && want <= hi
	default:
		return false
	}
}

// zoneStrEq prunes string equality when the path holds no strings, or when
// a complete dictionary provably lacks the constant.
func zoneStrEq(want string) zoneTest {
	return func(s *PathSummary) bool {
		if !s.Kinds.Has(jsonval.String) {
			return true
		}
		if !s.DictComplete {
			return false
		}
		i := sort.SearchStrings(s.Dict, want)
		return i >= len(s.Dict) || s.Dict[i] != want
	}
}

// zoneHasPrefix prunes prefix matching when the path holds no strings, or
// when no entry of a complete dictionary starts with the prefix. The sorted
// dictionary makes that one binary search: if any entry has the prefix, the
// first entry ≥ prefix does.
func zoneHasPrefix(prefix string) zoneTest {
	return func(s *PathSummary) bool {
		if !s.Kinds.Has(jsonval.String) {
			return true
		}
		if !s.DictComplete {
			return false
		}
		i := sort.SearchStrings(s.Dict, prefix)
		return i >= len(s.Dict) || !strings.HasPrefix(s.Dict[i], prefix)
	}
}

// zoneBoolEq prunes boolean equality when the path holds no booleans or the
// wanted value was never observed.
func zoneBoolEq(want bool) zoneTest {
	return func(s *PathSummary) bool {
		if !s.Kinds.Has(jsonval.Bool) {
			return true
		}
		if want {
			return !s.TrueSeen
		}
		return !s.FalseSeen
	}
}

// zoneArrSize prunes an array-size comparison when the path holds no arrays
// or no observed length can satisfy it.
func zoneArrSize(op CmpOp, want int) zoneTest {
	return func(s *PathSummary) bool {
		return !s.Kinds.Has(jsonval.Array) || !intRangeSatisfies(op, s.ArrMin, s.ArrMax, want)
	}
}

// zoneObjSize is zoneArrSize for object member counts.
func zoneObjSize(op CmpOp, want int) zoneTest {
	return func(s *PathSummary) bool {
		return !s.Kinds.Has(jsonval.Object) || !intRangeSatisfies(op, s.ObjMin, s.ObjMax, want)
	}
}
