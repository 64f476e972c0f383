package engine

import (
	"context"

	"github.com/joda-explore/betze/internal/obs"
	"github.com/joda-explore/betze/internal/query"
)

// ObserveImport reports one finished import into the observability scope
// attached to ctx: an import trace event plus per-engine counters and an
// import-duration histogram. A context without a scope makes this a no-op.
func ObserveImport(ctx context.Context, engineName, dataset string, st ImportStats, err error) {
	sc := obs.From(ctx)
	if !sc.Enabled() {
		return
	}
	ev := obs.Event{
		Type:     obs.EvImport,
		Engine:   engineName,
		Dataset:  dataset,
		Docs:     st.Docs,
		Bytes:    st.Bytes,
		Duration: st.Duration,
	}
	if err != nil {
		ev.Type = obs.EvError
		ev.Err = err.Error()
		sc.Counter(obs.EngineMetric(engineName, obs.EMImportErrors)).Inc()
	} else {
		sc.Counter(obs.EngineMetric(engineName, obs.EMImports)).Inc()
		sc.Counter(obs.EngineMetric(engineName, obs.EMImportedDocs)).Add(st.Docs)
		sc.Observe(obs.EngineMetric(engineName, obs.EMImport), st.Duration)
	}
	sc.Record(ev)
}

// ObserveExec reports one finished query execution: a query_execute trace
// event carrying the ExecStats plus per-engine counters and a
// query-duration histogram.
func ObserveExec(ctx context.Context, engineName string, q *query.Query, st ExecStats, err error) {
	sc := obs.From(ctx)
	if !sc.Enabled() {
		return
	}
	ev := obs.Event{
		Type:     obs.EvQueryExecute,
		Engine:   engineName,
		Query:    q.ID,
		Dataset:  q.Base,
		Scanned:  st.Scanned,
		Matched:  st.Matched,
		Returned: st.Returned,
		Bytes:    st.OutputBytes,
		Duration: st.Duration,
	}
	if err != nil {
		ev.Type = obs.EvError
		ev.Err = err.Error()
		sc.Counter(obs.EngineMetric(engineName, obs.EMQueryErrors)).Inc()
	} else {
		sc.Counter(obs.EngineMetric(engineName, obs.EMQueries)).Inc()
		sc.Counter(obs.EngineMetric(engineName, obs.EMDocsScanned)).Add(st.Scanned)
		sc.Observe(obs.EngineMetric(engineName, obs.EMQuery), st.Duration)
	}
	sc.Record(ev)
}

// ObserveCache reports a cache hit or miss for a filtered query.
func ObserveCache(ctx context.Context, engineName string, q *query.Query, hit bool) {
	sc := obs.From(ctx)
	if !sc.Enabled() {
		return
	}
	typ := obs.EvCacheMiss
	metric := obs.EMCacheMisses
	if hit {
		typ = obs.EvCacheHit
		metric = obs.EMCacheHits
	}
	sc.Counter(obs.EngineMetric(engineName, metric)).Inc()
	sc.Record(obs.Event{Type: typ, Engine: engineName, Query: q.ID, Dataset: q.Base})
}

// ObserveEviction reports an engine dropping its parsed datasets.
func ObserveEviction(ctx context.Context, engineName string) {
	sc := obs.From(ctx)
	if !sc.Enabled() {
		return
	}
	sc.Counter(obs.EngineMetric(engineName, obs.EMEvictions)).Inc()
	sc.Record(obs.Event{Type: obs.EvEviction, Engine: engineName})
}
