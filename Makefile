# Developer targets for the BETZE reproduction. Everything is stdlib-only Go;
# `make check` is the full CI gate (vet + lint + race-enabled tests).

GO ?= go

.PHONY: all build test vet lint lint-self race race-core race-engine race-service race-tools race-cover chaos crash crashfuzz crashfuzz-deep serve-crash loadgen-det check bench bench-short bench-paper clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Machine-checked invariants (DESIGN.md): determinism, sentinel wrapping,
# context plumbing, the closed observability vocabulary, resource release,
# atomic artifact publication, and the CFG/dataflow concurrency suite
# (lockbalance, goleak, atomicmix, wgdiscipline, journalorder).
# Exits non-zero on any finding; suppress with //lint:ignore <analyzer> <reason>.
lint:
	$(GO) run ./cmd/betze-lint ./...

# Self-check gate: the linter's own CFG, dataflow, analyzer-golden,
# suppression and baseline tests, plus a smoke run of the driver's flag
# surface. A broken analyzer must fail the gate itself, not just report
# nothing.
lint-self:
	$(GO) test ./internal/lint/ ./cmd/betze-lint/
	$(GO) run ./cmd/betze-lint -list >/dev/null
	$(GO) run ./cmd/betze-lint -format=json ./... >/dev/null

# The multiuser harness, the jodasim worker pool and the obs registry are the
# concurrency hot spots; run the whole tree under the race detector. The
# shards below partition the package tree so `make -j4 race` runs them in
# parallel; `race` depends on all of them and stays correct sequentially.
RACE_CORE = ./internal/core/... ./internal/query/... ./internal/analyze/... \
	./internal/langs/... ./internal/datasets/... ./internal/lint/...
RACE_ENGINE = ./internal/engine/... ./internal/shard/... ./internal/faultsim/... \
	./internal/runlog/... ./internal/fsatomic/... ./internal/errfs/...
RACE_SERVICE = ./internal/harness/... ./internal/jobqueue/... ./internal/obs/... \
	./internal/loadgen/... ./cmd/betze-web/...
RACE_TOOLS = . ./benchmark ./cmd/betze ./cmd/betze-bench/... ./cmd/betze-lint/... \
	./examples/... ./internal/bsonlite/... ./internal/jsonblite/... \
	./internal/jsonstats/... ./internal/jsonval/... ./internal/lz/...
race-core:
	$(GO) test -race $(RACE_CORE)
race-engine:
	$(GO) test -race $(RACE_ENGINE)
race-service:
	$(GO) test -race $(RACE_SERVICE)
race-tools:
	$(GO) test -race $(RACE_TOOLS)
race: race-core race-engine race-service race-tools

# A package that no shard pattern matches would never run under the race
# detector; fail when `go list ./...` has one.
race-cover:
	@missing=$$($(GO) list ./... | grep -vxF "$$($(GO) list $(RACE_CORE) $(RACE_ENGINE) $(RACE_SERVICE) $(RACE_TOOLS))"); \
	if [ -n "$$missing" ]; then echo "packages in no race shard:"; echo "$$missing"; exit 1; fi

# Fault-injection suite: every retry/breaker/crash-recovery/cancellation test
# runs with the deterministic injector active, under the race detector.
chaos:
	$(GO) test -race -run 'Fault|Resilien|Recovery|Breaker|Retry|Skip|Cancel|Crash|MultiUser' \
		./internal/faultsim/... ./internal/harness/... ./internal/engine/...

# Durability suite: journal torn-write/bit-flip recovery, atomic publication,
# session-file corruption, and the SIGKILL-and-resume integration test, all
# under the race detector.
crash:
	$(GO) test -race -run 'Runlog|Journal|Resume|Atomic|Torn|Truncat|Corrupt|RoundTrip|Segment|BitFlip|Oversized|KillAndResume|Replay|WorkKey|SessionFile' \
		./internal/runlog/... ./internal/fsatomic/... ./internal/harness/... \
		./internal/core/... ./cmd/betze-bench/...

# Crash-point consistency harness: record the durability stack's op traces
# over the in-memory errfs, simulate power loss at every sync boundary (and
# between them, under torn/keep-all policies), re-run recovery at each point
# and check the four invariants: no acked record lost, no torn artifact
# under a final name, jobqueue replay consistent with the ack history, and
# byte-identical exports from a resumed campaign. Bounded sampling; the
# schedule derives from -errfs-seed (default 1) and is fully reproducible.
crashfuzz:
	$(GO) run ./cmd/betze-bench -crashfuzz

# Exhaustive enumeration of every crash point in every trace, plus more
# campaign resume points. Not part of `make check`; run before touching
# runlog/fsatomic/jobqueue internals.
crashfuzz-deep:
	$(GO) run ./cmd/betze-bench -crashfuzz-deep

# Service-level durability gate: SIGKILL a betze-web subprocess mid-campaign,
# restart it over the same data directory, and require the recovered server
# to publish an artifact byte-identical to an uninterrupted baseline run,
# then drain gracefully on SIGTERM with a sealed journal.
serve-crash:
	$(GO) test -race -run 'TestServeCrashResume' -v ./cmd/betze-web/

# Deterministic loadgen smoke: under -det-timing the open-loop verdict table
# is a pure function of the seed (virtual-time scheduler over work-counter
# service times), so two runs must emit byte-identical tables. The one line
# filtered out is the wall-clock "took" footer.
loadgen-det:
	$(GO) run ./cmd/betze-bench -exp loadgen -det-timing -twitter-docs 2000 \
		| grep -v 'took' > /tmp/betze-loadgen-a.txt
	$(GO) run ./cmd/betze-bench -exp loadgen -det-timing -twitter-docs 2000 \
		| grep -v 'took' > /tmp/betze-loadgen-b.txt
	cmp /tmp/betze-loadgen-a.txt /tmp/betze-loadgen-b.txt

check: vet lint lint-self race-cover race chaos crash crashfuzz serve-crash loadgen-det bench-short

# Perf suite: compiled predicates vs. the interface-dispatch path, the shared
# scan kernel, zone-map shard pruning (adaptive: probes deactivate it where
# zones prove nothing), the lock-free metrics hot path vs. a mutex baseline,
# and the open-loop saturation sweep over the engine sims. Refreshes the
# tracked BENCH_10.json (the repo's perf trajectory; see README).
bench:
	$(GO) run ./cmd/betze-bench -perf -perf-out BENCH_10.json

# Short perf pass for `make check`: same suite with fewer repeats, stdout
# only — the tracked artifact is not overwritten.
bench-short:
	$(GO) run ./cmd/betze-bench -perf -perf-repeats 2

# A quick laptop-scale pass over every experiment of the paper.
bench-paper:
	$(GO) run ./cmd/betze-bench -exp all

clean:
	$(GO) clean ./...
