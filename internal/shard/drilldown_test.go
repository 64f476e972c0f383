package shard

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/joda-explore/betze/internal/datasets"
	"github.com/joda-explore/betze/internal/jsonval"
	"github.com/joda-explore/betze/internal/query"
)

// The drill-down guards: on the as-generated (unclustered) corpus the zone
// maps prove almost nothing (skip share ~4.5%), so unconditionally checking
// every shard's zone once made the pruned scan SLOWER than the full scan
// (0.91x). The adaptive pruner probes a deterministic prefix of shard zones
// and deactivates when the skip rate is under 1/8 — the pruned pass then
// costs the full pass plus a handful of probes. On a corpus clustered by the
// drilled attribute the same zones skip almost everything (88.8% of
// documents, ~7.7x; `go test ./internal/shard -bench Drilldown`).

// drilldownShardSize is small enough that the 800-document corpus still
// splits into a dozen shards.
const drilldownShardSize = 64

// drilldownPredicates builds the selective conjunctive workload pruning
// exploits: every tree constrains /user/followers_count to a narrow band
// (uniform over [0, 1e6) in the Twitter generator), the shape of a
// drill-down exploration step. On a corpus clustered by that attribute the
// band misses most shards' zone ranges entirely.
func drilldownPredicates(seed int64, n int) []query.Predicate {
	r := rand.New(rand.NewSource(seed))
	langs := []string{"en", "de", "ja", "es", "pt"}
	preds := make([]query.Predicate, n)
	for i := range preds {
		lo := float64(r.Intn(940000))
		band := query.And{
			Left:  query.FloatCmp{Path: "/user/followers_count", Op: query.Ge, Value: lo},
			Right: query.FloatCmp{Path: "/user/followers_count", Op: query.Lt, Value: lo + float64(10000+r.Intn(50000))},
		}
		switch r.Intn(3) {
		case 0:
			preds[i] = band
		case 1:
			preds[i] = query.And{Left: band, Right: query.BoolEq{Path: "/user/verified", Value: true}}
		default:
			preds[i] = query.And{Left: band, Right: query.StrEq{Path: "/user/lang", Value: langs[r.Intn(len(langs))]}}
		}
	}
	return preds
}

// clusterByAudience returns the corpus sorted by /user/followers_count —
// the data layout a drill-down session converges onto (stored intermediate
// results of range filters), and the one where zone ranges get narrow.
func clusterByAudience(docs []jsonval.Value) []jsonval.Value {
	steps := jsonval.Path("/user/followers_count").Segments()
	key := func(d jsonval.Value) float64 {
		v, ok := jsonval.LookupSteps(d, steps)
		if !ok {
			return -1
		}
		n, _ := v.Number()
		return n
	}
	out := append([]jsonval.Value(nil), docs...)
	sort.SliceStable(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
	return out
}

func drilldownStores(tb testing.TB) (unclustered, clustered *Store, cps []query.CompiledPredicate) {
	tb.Helper()
	const seed = 123
	docs := datasets.NewTwitter().Generate(800, seed)
	unclustered = Build(docs, drilldownShardSize)
	clustered = Build(clusterByAudience(docs), drilldownShardSize)
	preds := drilldownPredicates(seed+1, 16)
	cps = make([]query.CompiledPredicate, len(preds))
	for i, p := range preds {
		cps[i] = query.Compile(p)
	}
	return unclustered, clustered, cps
}

// drilldownScan runs every predicate over the store the way a pruning sim
// does — one adaptive pruner per predicate (probe cost included), EvalBlock
// over the shards it does not skip — and returns the share of documents
// whose shard was skipped. zone resolves a shard's zone map, so a test can
// interpose on every consultation.
func drilldownScan(st *Store, cps []query.CompiledPredicate, zone func(i int) query.Zone, prune bool) float64 {
	keep := make([]bool, drilldownShardSize)
	skipped := 0
	for _, c := range cps {
		e := c.Evaluator()
		var pruner *query.AdaptivePruner
		if prune {
			pruner = query.NewAdaptivePruner(c.Prune, st.NumShards(), zone)
		}
		for s := 0; s < st.NumShards(); s++ {
			sh := st.Shard(s)
			if prune && pruner.CanSkip(s, zone(s)) {
				skipped += len(sh.Docs)
				continue
			}
			e.EvalBlock(sh.Docs, keep)
		}
	}
	return float64(skipped) / float64(len(cps)*st.Len())
}

func storeZones(st *Store) func(i int) query.Zone {
	return func(i int) query.Zone { return st.Shard(i).Zone }
}

// TestAdaptivePrunerDeactivatesUnclustered pins the mechanism: on the
// unclustered corpus the probes find (almost) nothing skippable and the
// pruners deactivate, while the clustered corpus keeps them active. This is
// fully deterministic — seeded corpus, seeded predicates, fixed probe prefix.
func TestAdaptivePrunerDeactivatesUnclustered(t *testing.T) {
	unclustered, clustered, cps := drilldownStores(t)
	countActive := func(st *Store) int {
		n := 0
		for _, c := range cps {
			if query.NewAdaptivePruner(c.Prune, st.NumShards(), storeZones(st)).Active() {
				n++
			}
		}
		return n
	}
	// A single skippable shard among the probes keeps a pruner active (the
	// zone check is ~two orders cheaper than a block scan, so that is still
	// profitable); what must not happen is the whole predicate set paying
	// zone checks on a corpus where probes found nothing.
	if n := countActive(unclustered); n > len(cps)/2 {
		t.Fatalf("unclustered corpus: %d/%d pruners stayed active, want <= %d — zone checks would burden every shard again",
			n, len(cps), len(cps)/2)
	}
	if n := countActive(clustered); n < 3*len(cps)/4 {
		t.Fatalf("clustered corpus: only %d/%d pruners active, want >= %d — pruning lost its profitable case",
			n, len(cps), 3*len(cps)/4)
	}
}

// countingZone marks its shard as consulted on any zone-map read.
type countingZone struct {
	query.Zone
	consulted *bool
}

func (z countingZone) Summary(path string) (query.PathSummary, bool) {
	*z.consulted = true
	return z.Zone.Summary(path)
}

func (z countingZone) Complete() bool {
	*z.consulted = true
	return z.Zone.Complete()
}

// TestDeactivatedPrunerConsultsOnlyProbePrefix states "adaptive-pruned is
// not slower than full where pruning cannot win" as a work count instead of
// a wall-clock ratio: through a whole scan of the unclustered corpus, a
// pruner that deactivated reads the zone maps of its probe prefix and of no
// other shard, so the pruned pass is the full pass plus Probed() zone
// checks. The profitable case must survive: on the clustered corpus the
// same scan skips at least 80% of the documents.
func TestDeactivatedPrunerConsultsOnlyProbePrefix(t *testing.T) {
	unclustered, clustered, cps := drilldownStores(t)
	deactivated := 0
	for pi, c := range cps {
		consulted := make([]bool, unclustered.NumShards())
		zone := func(i int) query.Zone {
			return countingZone{Zone: unclustered.Shard(i).Zone, consulted: &consulted[i]}
		}
		pruner := query.NewAdaptivePruner(c.Prune, unclustered.NumShards(), zone)
		if pruner.Active() {
			continue
		}
		deactivated++
		if pruner.Probed() >= unclustered.NumShards() {
			t.Fatalf("predicate %d: probe prefix %d covers all %d shards — nothing left to save",
				pi, pruner.Probed(), unclustered.NumShards())
		}
		drilldownScan(unclustered, cps[pi:pi+1], zone, true)
		for s, hit := range consulted {
			if hit && s >= pruner.Probed() {
				t.Errorf("predicate %d: deactivated pruner consulted the zone of shard %d, beyond its probe prefix of %d",
					pi, s, pruner.Probed())
			}
		}
	}
	if deactivated == 0 {
		t.Fatal("no pruner deactivated on the unclustered corpus: the work bound was never exercised")
	}
	if share := drilldownScan(clustered, cps, storeZones(clustered), true); share < 0.8 {
		t.Errorf("clustered corpus: pruned scan skipped %.1f%% of documents, want >= 80%%", share*100)
	}
}

// BenchmarkDrilldown times the drill-down workload as a full scan, an
// adaptive-pruned scan of the unclustered corpus (expected ~1.0x of full)
// and of the clustered corpus (expected several times faster), and reports
// the share of documents each pass skipped.
func BenchmarkDrilldown(b *testing.B) {
	unclustered, clustered, cps := drilldownStores(b)
	for _, bc := range []struct {
		name  string
		st    *Store
		prune bool
	}{
		{"full", unclustered, false},
		{"pruned", unclustered, true},
		{"pruned_clustered", clustered, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			zone := storeZones(bc.st)
			var share float64
			for i := 0; i < b.N; i++ {
				share = drilldownScan(bc.st, cps, zone, bc.prune)
			}
			b.ReportMetric(share, "skip_share")
		})
	}
}
