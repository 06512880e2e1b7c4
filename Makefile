# Mirrors .github/workflows/ci.yml so local runs and CI stay in sync.
GO ?= go

.PHONY: all build vet fmt test race bench-module bench bench-pairs bench-collective ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The whole suite under the race detector, full-size (~1 min): a new
# test is raced without having to match a -run pattern.
race:
	$(GO) test -race ./...

# bench/ is a nested module (replace drxmp => ../) that ./... never
# builds, so an API change can break it unnoticed.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# Paired runs of BASE against the working tree on one bench/ workload,
# with the -compare verdicts: make bench-pairs W=serve_mixed N=10 BASE=HEAD~1
W ?= serve_mixed
N ?= 10
BASE ?= HEAD
bench-pairs:
	bash scripts/bench_pairs.sh $(W) $(N) $(BASE)

# Collective-benchmark smoke: one iteration of the Collective
# benchmarks (parallel vs serial two-phase, FIFO vs elevator
# scheduling, write-behind, and the read-cache warm/no-cache pair),
# plus the BENCH_collective.json artifact (MB/s + seeks for FIFO vs
# elevator, fixed vs adaptive cb_nodes, the E19 write-behind policy
# rows, the E20 read-cache no-cache/cold/warm rows, the ServeBench
# serving-tier rows: requests/s, coalesce ratio, single-flight hit
# rate, the E21 degraded-read rows: read p99 + reconstruction
# counters for healthy/wait-straggler/degraded regimes, the E22
# resilient-client rows: read p99 + hedge win rate for plain/retry/
# hedged clients, and the E24 placement rows: warm slab-rewrite MB/s +
# seeks + owned sweeps + domain-local exchange bytes) that tracks the
# perf trajectory across PRs.
bench-collective:
	$(GO) test -bench=Collective -benchtime=1x -run '^$$' .
	$(GO) run ./cmd/drxbench -benchjson BENCH_collective.json
	@cat BENCH_collective.json

ci: build vet fmt test race bench-module bench bench-collective
