package obs

// This file is the single vocabulary of metric names (the trace-event
// vocabulary — the Ev* constants — lives in trace.go). Every name a
// counter, gauge or histogram is resolved under, and every Kind subtyping a
// trace event, is declared here; call sites must reference these constants
// or the name helpers below. The obsvocab analyzer (internal/lint) rejects
// inline string literals at metric and event call sites, so downstream
// consumers joining on names can trust the vocabulary to be closed: a new
// name is a reviewed change to this file, not an ad-hoc literal in an
// engine.

// Harness metrics: session execution and the resilient executor.
const (
	// MHarnessSession is the per-session duration histogram (summed query
	// time, the paper's "w/o import" number).
	MHarnessSession = "harness.session"
	// MHarnessSessions counts executed sessions.
	MHarnessSessions = "harness.sessions"
	// MHarnessTimeouts counts sessions that hit their deadline.
	MHarnessTimeouts = "harness.timeouts"
	// MHarnessRetries counts re-attempted operations (imports and queries).
	MHarnessRetries = "harness.retries"
	// MHarnessSkips counts queries recorded as failed and passed over.
	MHarnessSkips = "harness.skips"
	// MHarnessBreakerOpens counts circuit-breaker open transitions.
	MHarnessBreakerOpens = "harness.breaker_opens"
	// MHarnessRecoveries counts crash recoveries that replayed lineage.
	MHarnessRecoveries = "harness.recoveries"
	// MHarnessResumeSkips counts work units skipped on resume because the
	// run journal already holds their result.
	MHarnessResumeSkips = "harness.resume_skips"
)

// Run-journal metrics: the write-ahead runlog behind -resume.
const (
	// MRunlogRecovered counts records replayed from a journal on resume.
	MRunlogRecovered = "runlog.recovered"
	// MRunlogTruncations counts recoveries that dropped a torn or corrupt
	// journal tail.
	MRunlogTruncations = "runlog.truncations"
)

// Command metrics: the betze-web server.
const (
	// MWebGenerate is the betze-web session-generation latency histogram.
	MWebGenerate = "web.generate"
	// MWebGenerateErrors counts failed betze-web generation requests.
	MWebGenerateErrors = "web.generate_errors"
	// MWebSessionsGenerated counts sessions generated by betze-web.
	MWebSessionsGenerated = "web.sessions_generated"
	// MWebSessionsStored gauges the sessions retained in betze-web memory.
	MWebSessionsStored = "web.sessions_stored"
	// MWebBadRequests counts requests rejected by input validation.
	MWebBadRequests = "web.bad_requests"
	// MWebCampaigns counts campaigns accepted by POST /api/campaigns.
	MWebCampaigns = "web.campaigns"
	// MWebCampaignsShed counts campaign submissions shed by admission
	// control (429 quota / 503 overload responses).
	MWebCampaignsShed = "web.campaigns_shed"
	// MWebCampaignRun is the per-campaign execution latency histogram.
	MWebCampaignRun = "web.campaign_run"
	// MWebSSEClients gauges the connected journal-tailing event streams.
	MWebSSEClients = "web.sse_clients"
	// MWebDatasetsMaterialized counts campaign datasets generated, written
	// and analysed: the dataset store's misses.
	MWebDatasetsMaterialized = "web.datasets_materialized"
)

// Job-queue metrics: the journaled campaign queue and its worker pool
// (internal/jobqueue).
const (
	// MQueueSubmitted counts jobs admitted into the queue.
	MQueueSubmitted = "queue.submitted"
	// MQueueRejected counts submissions refused by admission control
	// (bounded depth, tenant quota, draining).
	MQueueRejected = "queue.rejected"
	// MQueueDepth gauges the jobs waiting to be claimed.
	MQueueDepth = "queue.depth"
	// MQueueInFlight gauges the jobs currently held by workers.
	MQueueInFlight = "queue.inflight"
	// MQueueWait is the submit-to-claim wait-time histogram.
	MQueueWait = "queue.wait"
	// MQueueDone counts jobs that completed successfully.
	MQueueDone = "queue.done"
	// MQueueFailed counts jobs that failed terminally.
	MQueueFailed = "queue.failed"
	// MQueueCancelled counts jobs cancelled by clients.
	MQueueCancelled = "queue.cancelled"
	// MQueueRequeued counts jobs returned to the queue: graceful-drain
	// releases plus crash-recovery requeues of in-flight work.
	MQueueRequeued = "queue.requeued"
	// MQueueCheckpoints counts checkpoint records journaled by executors.
	MQueueCheckpoints = "queue.checkpoints"
)

// Per-engine metric suffixes, resolved through EngineMetric: one metric
// family per engine, keyed "engine.<name>.<suffix>".
const (
	// EMImports counts successful dataset imports.
	EMImports = "imports"
	// EMImportErrors counts failed imports.
	EMImportErrors = "import_errors"
	// EMImportedDocs counts documents imported.
	EMImportedDocs = "imported_docs"
	// EMImport is the import-duration histogram.
	EMImport = "import"
	// EMQueries counts successful query executions.
	EMQueries = "queries"
	// EMQueryErrors counts failed query executions.
	EMQueryErrors = "query_errors"
	// EMDocsScanned counts documents scanned by queries.
	EMDocsScanned = "docs_scanned"
	// EMQuery is the query-duration histogram.
	EMQuery = "query"
	// EMCacheHits counts queries (partially) served from cached ancestors.
	EMCacheHits = "cache_hits"
	// EMCacheMisses counts filtered queries with no cached ancestor.
	EMCacheMisses = "cache_misses"
	// EMEvictions counts dataset evictions.
	EMEvictions = "evictions"
)

// Scan metrics: the shared document walk (internal/engine/scan).
const (
	// MScanBatches counts units of work between two cancellation checks:
	// claimed shards for scan.Shards, item batches for scan.Stream.
	MScanBatches = "scan.batches"
	// MScanItems counts items walked.
	MScanItems = "scan.items"
	// MScanWorkers counts the workers of every pass (1 for a sequential one).
	MScanWorkers = "scan.workers"
	// MScanCancels counts scans abandoned by context cancellation.
	MScanCancels = "scan.cancels"
)

// EngineMetric resolves a per-engine metric name from the engine's label
// and one of the EM* suffixes.
func EngineMetric(engine, suffix string) string {
	return "engine." + engine + "." + suffix
}

// FaultMetric resolves the per-kind injected-fault counter name from a
// faultsim Kind* constant.
func FaultMetric(kind string) string {
	return "faultsim." + kind
}

// Kinds subtyping trace events (the Event.Kind field). Fault kinds are
// declared in internal/faultsim (they double as schedule entries); these
// are the harness-side kinds.
const (
	// KindBreakerOpen marks an EvSkip short-circuited by an open breaker.
	KindBreakerOpen = "breaker_open"
	// KindOpen and KindClosed are the EvBreaker transition states.
	KindOpen   = "open"
	KindClosed = "closed"
	// KindExperiment and KindSession subtype checkpoint and resume_skip
	// events by the granularity of the journaled work unit.
	KindExperiment = "experiment"
	KindSession    = "session"
	// KindParallel and KindSequential subtype scan events by the kernel's
	// execution mode.
	KindParallel   = "parallel"
	KindSequential = "sequential"
)
