package query

// AdaptivePruner decides per query whether consulting zone maps pays for
// itself. Zone probes are pure overhead on a corpus whose layout does not
// cluster the filtered attribute (the zone ranges are wide, nothing skips,
// and the scan pays one prune walk per shard on top of the full scan); on a
// clustered corpus they skip almost everything. The pruner measures which
// world it is in on a deterministic prefix of the shards — the first
// clamp(numShards/8, 4, 64) zones, probed eagerly at construction — and
// bypasses zone probing for the rest of the scan when the observed skip rate
// falls below 1/8, the point where a probe's cost stops being covered by the
// documents it saves.
//
// Probing at construction, in shard order, keeps the decision independent of
// scan scheduling: parallel kernels call CanSkip from many workers in claim
// order, and a skip-rate estimate accumulated in that order would make
// Skipped counts — and the deterministic-timing clocks fed by them —
// run-dependent. Construction is single-threaded; afterwards the pruner is
// immutable and safe for concurrent CanSkip calls.
type AdaptivePruner struct {
	p      Prune
	probes []bool
	active bool
}

// adaptiveMinSkipNum/Den is the activation threshold: keep probing zones for
// the remaining shards only when at least 1 in 8 probed shards skipped.
const (
	adaptiveMinSkipNum = 1
	adaptiveMinSkipDen = 8
)

// NewAdaptivePruner probes the first shards of a store (zone resolves shard
// index → zone map) and returns the pruner for the whole scan. A predicate
// that can never prune skips the probes entirely.
func NewAdaptivePruner(proof Prune, numShards int, zone func(i int) Zone) *AdaptivePruner {
	a := &AdaptivePruner{p: proof}
	if proof.fn == nil || numShards <= 0 {
		return a
	}
	p := numShards / 8
	if p < 4 {
		p = 4
	}
	if p > 64 {
		p = 64
	}
	if p > numShards {
		p = numShards
	}
	a.probes = make([]bool, p)
	skips := 0
	for i := range a.probes {
		if proof.CanSkip(zone(i)) {
			a.probes[i] = true
			skips++
		}
	}
	a.active = skips*adaptiveMinSkipDen >= p*adaptiveMinSkipNum
	return a
}

// CanSkip answers for shard i: the recorded probe for the prefix, a real
// zone consultation beyond it while pruning is active, and false (scan the
// shard) once pruning was deemed unprofitable.
func (a *AdaptivePruner) CanSkip(i int, z Zone) bool {
	if i < len(a.probes) {
		return a.probes[i]
	}
	return a.active && a.p.CanSkip(z)
}

// Probed reports how many leading shards were probed at construction.
func (a *AdaptivePruner) Probed() int { return len(a.probes) }

// Active reports whether zone probing stays on beyond the probed prefix.
func (a *AdaptivePruner) Active() bool { return a.active }
