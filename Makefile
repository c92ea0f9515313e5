# Tier-1 verification plus the perf-record targets. `make ci` is what a CI
# workflow should run.

GO ?= go

.PHONY: all build test race vet fmt-check perfbench-check ci ci-fast ci-slow cover fuzz-smoke doctor-smoke objstore bench bench-smoke bench-check bench-record clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The experiments package replays whole paper use-cases; under the race
# detector it alone needs ~25 minutes, past go test's default 10m
# per-binary timeout.
race:
	$(GO) test -race -timeout 45m ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# perfbench is its own Go module, so `go build ./...` and `go vet ./...`
# above skip it; vet and build it here so an internal API change cannot
# break the repository benchmark unseen.
perfbench-check:
	cd perfbench && GOWORK=off $(GO) vet ./... && GOWORK=off $(GO) build -o /dev/null .

# CI is split into two lanes so the workflow can run them as parallel
# jobs: ci-fast is the quick correctness gate (a couple of minutes),
# ci-slow carries the race detector, smokes, perf floors and coverage.
# `ci` stays the union for local one-shot verification.
ci-fast: fmt-check vet perfbench-check build test objstore

ci-slow: race fuzz-smoke doctor-smoke bench-check cover

ci: ci-fast ci-slow

# Coverage over the internal packages: per-function table, an HTML report
# (cover.html) and a hard floor so coverage cannot silently regress. The
# floor sits below the current total (~85%) to absorb noise, not drift.
COVER_FLOOR ?= 80
cover:
	$(GO) test -coverprofile=cover.out ./internal/...
	$(GO) tool cover -func=cover.out | tail -1
	$(GO) tool cover -html=cover.out -o cover.html
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}'); \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { \
		if (t+0 < f+0) { printf "coverage %.1f%% is below the %s%% floor\n", t, f; exit 1 } \
		printf "coverage %.1f%% (floor %s%%)\n", t, f }'

# Brief run of every fuzz target (the checked-in testdata/fuzz corpus plus
# ~5s of new coverage each); any reader panic fails the build.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test ./internal/ckpt -run '^$$' -fuzz '^FuzzReadShardFile$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ckpt -run '^$$' -fuzz '^FuzzLTSFReader$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ckpt -run '^$$' -fuzz '^FuzzManifest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage -run '^$$' -fuzz '^FuzzBlobCodec$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage -run '^$$' -fuzz '^FuzzXORResolver$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/recipe -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)

# Exercise the doctor exit-code contract end to end: 2 when torn/orphaned
# checkpoint directories are found, 0 after -fix repairs them. The second
# scenario covers the dedup path: a real content-addressed run is seeded
# with a stray blob and a stale ref index (a record deleted out from under
# a committed checkpoint); doctor must exit 2, and -fix must rebuild the
# index from the manifests and exit 0. The third scenario covers the hub
# path: two runs attached to one shared store, a stray blob planted at the
# HUB's objects tree plus one run's namespaced ref journal deleted; doctor
# on that run must exit 2, -fix must rebuild its journal at the hub, and
# the peer run must stay healthy throughout.
doctor-smoke:
	@tmp=$$(mktemp -d); trap "rm -rf $$tmp" EXIT; \
	$(GO) build -o $$tmp/llmtailor ./cmd/llmtailor || exit 1; \
	mkdir -p $$tmp/root/run/checkpoint-10 $$tmp/root/run/checkpoint-20.tmp; \
	echo '{}' > $$tmp/root/run/checkpoint-10/manifest.json; \
	$$tmp/llmtailor doctor -root $$tmp/root -run run > /dev/null; rc=$$?; \
	if [ $$rc -ne 2 ]; then echo "doctor-smoke: want exit 2 on sick root, got $$rc"; exit 1; fi; \
	$$tmp/llmtailor doctor -root $$tmp/root -run run -fix > /dev/null || \
		{ echo "doctor-smoke: -fix failed"; exit 1; }; \
	$$tmp/llmtailor doctor -root $$tmp/root -run run > /dev/null || \
		{ echo "doctor-smoke: root still sick after -fix"; exit 1; }; \
	$(GO) build -o $$tmp/trainsim ./cmd/trainsim || exit 1; \
	$$tmp/trainsim -root $$tmp/root -run drun -model tiny -sim=false -steps 12 -interval 6 -dedup > /dev/null || \
		{ echo "doctor-smoke: dedup trainsim failed"; exit 1; }; \
	mkdir -p $$tmp/root/drun/objects/zz; \
	echo junk > $$tmp/root/drun/objects/zz/not-a-blob; \
	rec=$$(ls $$tmp/root/drun/objects/refs/gen-*.ref | head -1); \
	rm "$$rec"; \
	$$tmp/llmtailor doctor -root $$tmp/root -run drun > /dev/null; rc=$$?; \
	if [ $$rc -ne 2 ]; then echo "doctor-smoke: want exit 2 on stale ref index, got $$rc"; exit 1; fi; \
	$$tmp/llmtailor doctor -root $$tmp/root -run drun -fix > /dev/null || \
		{ echo "doctor-smoke: dedup -fix failed"; exit 1; }; \
	$$tmp/llmtailor doctor -root $$tmp/root -run drun > /dev/null || \
		{ echo "doctor-smoke: dedup root still sick after -fix"; exit 1; }; \
	ls $$tmp/root/drun/objects/refs/gen-*.ref > /dev/null || \
		{ echo "doctor-smoke: -fix did not rebuild the ref index"; exit 1; }; \
	$$tmp/llmtailor hub init -root $$tmp/root -hub hub -shards 4 > /dev/null || \
		{ echo "doctor-smoke: hub init failed"; exit 1; }; \
	for r in ha hb; do \
		$$tmp/llmtailor hub attach -root $$tmp/root -hub hub -run $$r > /dev/null || \
			{ echo "doctor-smoke: hub attach $$r failed"; exit 1; }; \
		$$tmp/trainsim -root $$tmp/root -run $$r -model tiny -sim=false -steps 12 -interval 6 -dedup -hub hub > /dev/null || \
			{ echo "doctor-smoke: hub trainsim $$r failed"; exit 1; }; \
	done; \
	mkdir -p $$tmp/root/hub/objects/zz; \
	echo junk > $$tmp/root/hub/objects/zz/not-a-blob; \
	rm $$tmp/root/hub/objects/refs/ha/gen-*.ref; \
	$$tmp/llmtailor doctor -root $$tmp/root -run ha > /dev/null; rc=$$?; \
	if [ $$rc -ne 2 ]; then echo "doctor-smoke: want exit 2 on stale hub ref journal, got $$rc"; exit 1; fi; \
	$$tmp/llmtailor doctor -root $$tmp/root -run ha -fix > /dev/null || \
		{ echo "doctor-smoke: hub -fix failed"; exit 1; }; \
	$$tmp/llmtailor doctor -root $$tmp/root -run ha > /dev/null || \
		{ echo "doctor-smoke: hub run still sick after -fix"; exit 1; }; \
	$$tmp/llmtailor doctor -root $$tmp/root -run hb > /dev/null || \
		{ echo "doctor-smoke: peer run hb sick after ha repair"; exit 1; }; \
	ls $$tmp/root/hub/objects/refs/ha/gen-*.ref > /dev/null || \
		{ echo "doctor-smoke: -fix did not rebuild the namespaced ref journal"; exit 1; }; \
	echo "doctor-smoke: OK"

# Object-store lane: the cross-backend conformance matrix, the object
# store's own suites (atomic PUTs, compose, multipart, retry metering),
# the no-rename commit-protocol crash explorations (save and elastic
# reshard) and the reshard round-trip — re-run with injected
# per-request latency so the remote-store timing paths (parallel part
# uploads overlapping the link, retry backoff on the sim clock) execute
# with real sleeps rather than degenerate zero-latency ones.
OBJSTORE_LAT_US ?= 200
objstore:
	OBJSTORE_LAT_US=$(OBJSTORE_LAT_US) $(GO) test ./internal/storage \
		-run 'TestBackendConformance|TestRenameSupportedProbe|TestObjStore|TestMultipart|TestRetry|TestMeterCharges'
	$(GO) test ./internal/ckpt -run 'TestCrashPointExplorationObjStoreSave|TestShardedObjStoreRoundTrip'
	$(GO) test ./internal/reshard -run 'TestReshardObjStore|TestCrashPointExplorationReshardObjStore'
	$(GO) test -race ./internal/ckpt -run 'TestShardedGCRacingConcurrentSave'

# Quick benchmark sweep of the streaming merge hot path.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkMerge' -benchmem .

# One iteration of every benchmark in the repo: benchmarks compile and run
# on each CI pass instead of bit-rotting between perf PRs. Perf-record
# files are NOT refreshed (that needs BENCH_RECORD=1, see bench-record).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x -timeout 30m ./...

# Perf floors, both live and recorded: bench-smoke runs every benchmark
# once (the key benchmarks assert their floors inline — raw merge >= 2x,
# dedup delta >= 5x, generational gc >= 5x, lazy-capture stall >= 5x,
# multipart object streaming >= 2x), then benchcheck verifies the
# committed BENCH_*.json records still clear the same floors, so a stale
# or hand-edited perf record fails CI instead of silently shifting the
# baseline future PRs diff against.
bench-check: bench-smoke
	$(GO) run ./cmd/benchcheck

# Refresh the committed BENCH_*.json perf records (the baselines future
# PRs diff against) with stable measurements.
bench-record:
	BENCH_RECORD=1 $(GO) test -run '^$$' -bench 'BenchmarkMergeFullStreamed|BenchmarkMergeRawVsDecode' -benchtime=5x .
	BENCH_RECORD=1 $(GO) test -run '^$$' -bench 'BenchmarkIncrementalSave' -benchtime=3x .
	BENCH_RECORD=1 $(GO) test -run '^$$' -bench 'BenchmarkGCIncremental' -benchtime=3x .
	BENCH_RECORD=1 $(GO) test -run '^$$' -bench 'BenchmarkCaptureStall' -benchtime=3x .
	BENCH_RECORD=1 $(GO) test -run '^$$' -bench 'BenchmarkObjStoreMultipart' -benchtime=10x .
	BENCH_RECORD=1 $(GO) test -run '^$$' -bench 'BenchmarkCompressedSave' -benchtime=3x .
	BENCH_RECORD=1 $(GO) test -run '^$$' -bench 'BenchmarkReshardRawVsDecode' -benchtime=5x .
	BENCH_RECORD=1 $(GO) test -run '^$$' -bench 'BenchmarkHubCrossRunDedup' -benchtime=3x .
	@cat BENCH_merge.json BENCH_merge_raw.json BENCH_delta.json BENCH_gc.json BENCH_stall.json BENCH_objstore.json BENCH_compress.json BENCH_reshard.json BENCH_hub.json

clean:
	rm -f llmtailor trainsim paperbench ckptstat cover.out cover.html
