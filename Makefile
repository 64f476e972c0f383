# Developer targets for the BETZE reproduction. Everything is stdlib-only Go;
# `make check` is the full CI gate (gofmt + vet + race-enabled tests, the
# lint suite and the exhaustive crash-point checks among them).

GO ?= go

.PHONY: all build test fmt vet lint race race-core race-engine race-service race-tools race-cover check bench-paper clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fails, listing them, when any file is not gofmt-clean.
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

vet:
	$(GO) vet ./...

# Machine-checked invariants (DESIGN.md): seeded determinism, atomic
# artifact publication, the errfs storage seam and the closed observability
# vocabulary.
# Exits non-zero on any finding; suppress with //lint:ignore <analyzer> <reason>.
# `make check` does not call this target: `race` runs the same suite over
# the tree once, as TestTreeIsLintClean.
lint:
	$(GO) run ./cmd/betze-lint ./...

# The multiuser harness, the jodasim worker pool, the campaign queue and
# betze-web are the concurrency hot spots; run the whole tree under the race
# detector. The
# shards below partition the package tree so `make -j4 race` runs them in
# parallel; `race` depends on all of them and stays correct sequentially.
RACE_CORE = ./internal/core/... ./internal/query/... ./internal/analyze/... \
	./internal/langs/... ./internal/datasets/... ./internal/lint/...
RACE_ENGINE = ./internal/engine/... ./internal/shard/... ./internal/faultsim/... \
	./internal/runlog/... ./internal/fsatomic/... ./internal/errfs/...
RACE_SERVICE = ./internal/harness/... ./internal/jobqueue/... ./internal/obs/... \
	./cmd/betze-web/...
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

# The gate. Fault injection, journal/crash recovery, the crash-point
# enumeration (TestFuzzWorkloadsPass in internal/errfs/crashpoint, every
# crash point of the runlog, fsatomic and jobqueue traces;
# TestResumeAtEveryFsync in cmd/betze-bench, a resume at every fsync of a
# betze-bench journal), the betze-web SIGKILL-and-resume test and the
# tree-is-lint-clean test are ordinary tests of their packages, so `race`
# runs each of them once, under -race.
check: fmt vet race-cover race

# A quick laptop-scale pass over every experiment of the paper.
bench-paper:
	$(GO) run ./cmd/betze-bench -exp all

clean:
	$(GO) clean ./...
