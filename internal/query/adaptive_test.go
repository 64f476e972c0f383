package query

import (
	"testing"

	"github.com/joda-explore/betze/internal/jsonval"
)

// zonesOf builds a per-shard zone resolver: skippable[i] controls whether
// shard i's zone rules out /num == 50 (range [10,20] does, [10,100] does not).
func zonesOf(skippable []bool) func(i int) Zone {
	return func(i int) Zone {
		hi := 100.0
		if skippable[i] {
			hi = 20
		}
		return fakeZone{complete: true, paths: map[string]PathSummary{
			"/num": numSummary(10, hi),
		}}
	}
}

// poisonZone fails the test on any consultation: handed to shards a
// deactivated pruner must answer about without touching their zones.
type poisonZone struct{ t *testing.T }

func (z poisonZone) Summary(string) (PathSummary, bool) {
	z.t.Fatal("bypassed pruner consulted a zone")
	return PathSummary{}, false
}

func (z poisonZone) Complete() bool {
	z.t.Fatal("bypassed pruner consulted a zone")
	return false
}

func adaptiveProbe(t *testing.T, skippable []bool) *AdaptivePruner {
	t.Helper()
	c := Compile(FloatCmp{Path: "/num", Op: Eq, Value: 50})
	if c.Prune.fn == nil {
		t.Fatal("test predicate should be prunable")
	}
	return NewAdaptivePruner(c.Prune, len(skippable), zonesOf(skippable))
}

func TestAdaptivePrunerBypassesUnprofitableZones(t *testing.T) {
	// 13 shards (the internal/shard drill-down corpus shape), none
	// skippable: 4 probes, all misses, pruning deactivates and later shards
	// never consult zones.
	skippable := make([]bool, 13)
	a := adaptiveProbe(t, skippable)
	if got, want := a.Probed(), 4; got != want {
		t.Fatalf("probed %d shards, want %d", got, want)
	}
	if a.Active() {
		t.Fatal("0/4 probe skips must deactivate pruning")
	}
	for i := a.Probed(); i < len(skippable); i++ {
		if a.CanSkip(i, poisonZone{t}) {
			t.Fatalf("shard %d skipped by an inactive pruner", i)
		}
	}
}

func TestAdaptivePrunerStaysActiveWhenSkipping(t *testing.T) {
	// Clustered layout: every shard but one skippable. Probes all skip,
	// pruning stays on, and beyond the prefix real zones still decide.
	skippable := make([]bool, 13)
	for i := range skippable {
		skippable[i] = i != 12
	}
	a := adaptiveProbe(t, skippable)
	if !a.Active() {
		t.Fatal("4/4 probe skips must keep pruning active")
	}
	zones := zonesOf(skippable)
	for i := 0; i < len(skippable); i++ {
		if got, want := a.CanSkip(i, zones(i)), skippable[i]; got != want {
			t.Errorf("shard %d: CanSkip = %v, want %v", i, got, want)
		}
	}
}

func TestAdaptivePrunerProbePrefixIsAuthoritative(t *testing.T) {
	// Probed answers are recorded at construction: the prefix answers from
	// the recording even when handed a different zone later (the kernels
	// always pass the same shard's zone; this pins the determinism contract).
	skippable := []bool{true, false, true, false, false, false, false, false}
	a := adaptiveProbe(t, skippable)
	for i := 0; i < a.Probed(); i++ {
		if got, want := a.CanSkip(i, nil), skippable[i]; got != want {
			t.Errorf("probed shard %d: CanSkip = %v, want %v", i, got, want)
		}
	}
}

func TestAdaptivePrunerProbeCountClamps(t *testing.T) {
	cases := []struct{ shards, probes int }{
		{1, 1}, {3, 3}, {4, 4}, {13, 4}, {64, 8}, {800, 64}, {10000, 64},
	}
	for _, tc := range cases {
		a := adaptiveProbe(t, make([]bool, tc.shards))
		if a.Probed() != tc.probes {
			t.Errorf("%d shards: probed %d, want %d", tc.shards, a.Probed(), tc.probes)
		}
	}
}

func TestAdaptivePrunerThreshold(t *testing.T) {
	// 64-shard store probes 8; exactly one skip (1/8) keeps pruning active,
	// zero deactivates it.
	one := make([]bool, 64)
	one[3] = true
	if a := adaptiveProbe(t, one); !a.Active() {
		t.Error("skip rate 1/8 must stay active")
	}
	if a := adaptiveProbe(t, make([]bool, 64)); a.Active() {
		t.Error("skip rate 0/8 must deactivate")
	}
}

// externalPred is a predicate type the compiler does not know: compiled via
// the interpretation fallback, it can never prune.
type externalPred struct{}

func (externalPred) Eval(jsonval.Value) bool { return true }
func (externalPred) String() string          { return "external" }

func TestAdaptivePrunerUnprunablePredicate(t *testing.T) {
	// An external leaf never prunes: no probes, no activation, CanSkip
	// always false.
	c := Compile(externalPred{})
	called := false
	a := NewAdaptivePruner(c.Prune, 100, func(int) Zone { called = true; return nil })
	if called {
		t.Error("unprunable predicate must not probe zones")
	}
	if a.Probed() != 0 || a.Active() {
		t.Errorf("unprunable pruner: probed %d active %v, want 0/false", a.Probed(), a.Active())
	}
	if a.CanSkip(50, fakeZone{complete: true, paths: map[string]PathSummary{}}) {
		t.Error("unprunable pruner skipped a shard")
	}
}
