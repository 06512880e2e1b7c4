# Mirrors .github/workflows/ci.yml so local runs and CI stay in sync.
GO ?= go

.PHONY: all build vet fmt cross test race bench-module bench fuzz mutants bench-pairs profile loc ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# internal/ec has amd64 assembly; keep the pure-Go fallback compiling
# (and vetted) for other architectures.
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) build ./...

# The paper golden again, three times at GOMAXPROCS 1 and 4: a table
# cell that follows the scheduler fails here rather than flaking later.
test:
	$(GO) test ./...
	$(GO) test -count=3 -cpu 1,4 -run '^TestPaperGolden$$' ./internal/exp

# The whole suite under the race detector, full-size (~1 min): a new
# test is raced without having to match a -run pattern.
race:
	$(GO) test -race ./...

# bench/ is a nested module (replace drxmp => ../) that ./... never
# builds, so an API change can break it unnoticed.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Every benchmark once, and only the benchmarks (-run '^$$'): the test
# leg has already run the unit suite.
bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# Each Fuzz* target for FUZZTIME past its seed corpus (which `test`
# already replays); -fuzz takes one target of one package per run.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzEncodeReconstruct$$' -fuzztime $(FUZZTIME) ./internal/ec
	$(GO) test -run '^$$' -fuzz '^FuzzMulXor$$' -fuzztime $(FUZZTIME) ./internal/ec
	$(GO) test -run '^$$' -fuzz '^FuzzParityUpdate$$' -fuzztime $(FUZZTIME) ./internal/pfs
	$(GO) test -run '^$$' -fuzz '^FuzzDegradedRead$$' -fuzztime $(FUZZTIME) ./internal/pfs
	$(GO) test -run '^$$' -fuzz '^FuzzMetaDecode$$' -fuzztime $(FUZZTIME) ./internal/meta
	$(GO) test -run '^$$' -fuzz '^FuzzParseBox$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzPunchV$$' -fuzztime $(FUZZTIME) ./internal/extent
	$(GO) test -run '^$$' -fuzz '^FuzzSpillModel$$' -fuzztime $(FUZZTIME) ./internal/spill
	$(GO) test -run '^$$' -fuzz '^FuzzUnpackSlices$$' -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRuns$$' -fuzztime $(FUZZTIME) ./internal/mpiio
	$(GO) test -run '^$$' -fuzz '^FuzzModel$$' -fuzztime $(FUZZTIME) .

# Every patch under scripts/mutants/ breaks one invariant; each is
# applied to an export of HEAD under .bench_build/mutants/ and the suite
# must fail there. A missed, stale or timed-out mutant fails the target.
mutants:
	bash scripts/mutants.sh

# Paired runs of BASE against the working tree on one bench/ workload
# (W=all: each of the five in turn), with the -compare verdicts:
# make bench-pairs W=serve_mixed N=10 BASE=HEAD~1
W ?= serve_mixed
N ?= 10
BASE ?= HEAD
bench-pairs:
	bash scripts/bench_pairs.sh $(W) $(N) $(BASE)

# CPU profile of one Go benchmark, flat top printed; binary and profile
# stay under .bench_build/ (go tool pprof .bench_build/prof.test
# .bench_build/cpu.prof for more):
# make profile B=Dispatch/FIFO PKG=./internal/pfs
B ?= .
PKG ?= .
profile:
	@mkdir -p .bench_build
	$(GO) test -run '^$$' -bench '$(B)' -benchtime=2s -o .bench_build/prof.test -cpuprofile .bench_build/cpu.prof $(PKG)
	$(GO) tool pprof -top -nodecount=35 .bench_build/prof.test .bench_build/cpu.prof

# Non-test and test Go lines, per top-level package of the root module
# and for bench/ — the figures ROADMAP quotes.
loc:
	@bash scripts/loc.sh

ci: build vet fmt cross test race bench-module bench fuzz mutants
