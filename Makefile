GO ?= go

.PHONY: build fmt test vet lint race gobench fuzz-short owstat-smoke examples verify bench-test bench-diff campaign

build:
	$(GO) build ./...

# bench/ is a module of its own, so ./... never reaches it.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet .

# fmt fails if any Go file is not gofmt-formatted.
fmt:
	test -z "$$(gofmt -l .)"

# lint runs owvet, the repo's own static-analysis suite (see DESIGN.md
# "Enforced invariants"): cross-kernel memory discipline, campaign
# determinism, modeled-panic usage, substrate error handling, lock
# hygiene, dead-byte provenance (deadtaint), machine-clock cost accounting
# (costaccount) and the sealed-ledger publish discipline (sealedacct).
# Any finding fails the target; the only exception is an in-source
# //owvet:allow <analyzer>: <reason> comment on or above the flagged line.
lint: build
	$(GO) run ./cmd/owvet

test:
	$(GO) test ./...

# Race-check everything; the campaign worker pool and trace ring get the
# most exercise, but the whole module must be race-clean.
race:
	$(GO) test -race ./...

# gobench runs every Go benchmark once, so a benchmark that stops compiling
# or fails its own checks (BenchmarkInstallPerPage fails when the lazy
# install stops speculating) fails the gate. Timings from one iteration
# mean nothing; run a benchmark by hand with -benchtime to measure.
gobench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# fuzz-short gives each decoder-facing fuzz target a brief budget: the
# record decoders the resurrection scan aims at the dead kernel's bytes,
# the crash-tail frame salvage behind the trace ring, candidate index and
# metrics segment (which wild writes may have hit), the block-layer crash model's torn-write/rollback/orphan machinery, and
# the span builder that must stay total over corrupted/truncated rings.
# FuzzMemOps checks the sector-table physical memory and its counting
# views under all of them against a flat byte-array reference model, and
# FuzzTLBOps checks the indexed TLB against the map-based one it replaced,
# and FuzzFrameAllocOps the run-stack frame allocator against the
# stack-of-ints one it replaced, and FuzzFlatFSOps the sector-table file
# store against the flat-slice one it replaced.
# FuzzReadRecord holds the shared record reader, through reused buffers
# of every capacity, to its answer through a fresh one, and
# FuzzRecordDecode holds every record type's decoder to the same and to
# its encoder: an accepted record re-encodes to the bytes it was read from.
# Each new interesting input is minimized for at most 1 s: Go's default
# minimization budget is 60 s an input, which left exec counts flat for
# most of a 10 s run.
# Long exploratory runs stay manual (go test -fuzz=<target> <pkg>).
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzMemOps -fuzztime 10s -fuzzminimizetime 1s ./internal/phys
	$(GO) test -run '^$$' -fuzz FuzzTLBOps -fuzztime 10s -fuzzminimizetime 1s ./internal/hw
	$(GO) test -run '^$$' -fuzz FuzzFrameAllocOps -fuzztime 10s -fuzzminimizetime 1s ./internal/phys
	$(GO) test -run '^$$' -fuzz FuzzFlatFSOps -fuzztime 10s -fuzzminimizetime 1s ./internal/fs
	$(GO) test -run '^$$' -fuzz FuzzReadRecord -fuzztime 10s -fuzzminimizetime 1s ./internal/layout
	$(GO) test -run '^$$' -fuzz FuzzRecordDecode -fuzztime 10s -fuzzminimizetime 1s ./internal/layout
	$(GO) test -run '^$$' -fuzz FuzzFrameSalvage -fuzztime 10s -fuzzminimizetime 1s ./internal/layout
	$(GO) test -run '^$$' -fuzz FuzzTornWrite -fuzztime 10s -fuzzminimizetime 1s ./internal/disk
	$(GO) test -run '^$$' -fuzz FuzzSpanBuild -fuzztime 10s -fuzzminimizetime 1s ./internal/spans

# owstat-smoke drives the metrics plane end to end at the CLI surface:
# owsim emits a snapshot, owstat renders it, and a self-diff must report
# zero deltas (any nondeterminism in render/diff shows up here first).
# The snapshot lands in .artifacts/ so CI can upload it.
owstat-smoke: build
	mkdir -p .artifacts
	$(GO) run ./cmd/owsim -app vi -seed 7 -metrics-json .artifacts/metrics.json >/dev/null
	$(GO) run ./cmd/owstat render .artifacts/metrics.json >/dev/null
	$(GO) run ./cmd/owstat diff .artifacts/metrics.json .artifacts/metrics.json | grep -q identical

# examples builds the six examples/* programs and runs each one: every
# program must exit 0 and print the line that states its claim. They are
# the only callers of the whole boot, crash and morph cycle outside the
# tests, and hot-update the only one that sets FastCrashBoot.
examples:
	mkdir -p .artifacts/examples
	$(GO) build -o .artifacts/examples/ ./examples/...
	@cd .artifacts/examples && \
	check() { out=$$(./$$1) || { echo "examples: $$1 failed"; exit 1; }; \
		echo "$$out" | grep -qF "$$2" || { echo "examples: $$1 did not print \"$$2\""; exit 1; }; \
		echo "ok	$$1"; } && \
	check apache-sessions 'no shopping cart was lost' && \
	check checkpoint-protect 'survived the microreboot (valid: true)' && \
	check editor-survives 'verified against the keystroke log' && \
	check hot-update 'no transaction was lost' && \
	check mysql-inmemory 'nothing was rolled back' && \
	check quickstart 'state preserved: true'

# verify is the pre-merge gate: build, the gofmt check, vet, owvet lint,
# full tests, race pass, one run of every Go benchmark, a short fuzz burst
# over the crash-kernel decoder surface, the owstat metrics smoke check,
# the examples and the benchmark module's tests. `test` runs every test once, the WAL data-survival gate
# (TestWALInvariantCampaign, TestWALCrashPointSweep) and the
# fleet-recovery smoke (TestFleetRecoverySmoke,
# TestFleetCorruptIndexFallsBack) among them, and `race` runs them again
# under the race detector.
verify: build fmt vet lint test race gobench fuzz-short owstat-smoke examples bench-test

# bench-test runs the tests of the two-clock benchmark (bench/, a module of
# its own that imports core, phys and experiment, so `go test ./...` never
# compiles it): every workload shrunk to two cycles, outputs checked.
bench-test:
	cd bench && $(GO) test .

# bench-diff re-measures the perf-trajectory scenarios at the checked-in
# snapshot's seed and fails on any modeled-time metric regressing more
# than 10% against BENCH_24.json (the one-outage Table 5 and 6 snapshot —
# the gate covers the eager, lazy and fleet columns, the per-tier
# first-resume and discovery-prologue ones included).
bench-diff: build
	$(GO) run ./cmd/owbench -bench-diff BENCH_24.json

campaign:
	$(GO) run ./cmd/owcampaign -n 100
