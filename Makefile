GO ?= go

.PHONY: build fmt test vet lint race fuzz-short owstat-smoke wal-check verify bench bench-test bench-diff campaign

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails if any Go file is not gofmt-formatted.
fmt:
	test -z "$$(gofmt -l .)"

# lint runs owvet, the repo's own static-analysis suite (see DESIGN.md
# "Enforced invariants"): cross-kernel memory discipline, campaign
# determinism, modeled-panic usage, substrate error handling, lock
# hygiene, dead-byte provenance (deadtaint), machine-clock cost accounting
# (costaccount) and the sealed-ledger publish discipline (sealedacct).
# Findings are diffed against the committed owvet.baseline.json (currently
# empty — the tree is clean) so only NEW violations fail; the full finding
# set lands in .artifacts/owvet.sarif for code-scanning upload.
lint: build
	mkdir -p .artifacts
	$(GO) run ./cmd/owvet -baseline owvet.baseline.json -sarif .artifacts/owvet.sarif

test:
	$(GO) test ./...

# Race-check everything; the campaign worker pool and trace ring get the
# most exercise, but the whole module must be race-clean.
race:
	$(GO) test -race ./...

# fuzz-short gives each decoder-facing fuzz target a brief budget: the
# record decoders the resurrection scan aims at the dead kernel's bytes,
# the crash-tail frame salvage behind the trace ring, candidate index and
# metrics segment (which wild writes may have hit), the block-layer crash model's torn-write/rollback/orphan machinery, and
# the span builder that must stay total over corrupted/truncated rings.
# FuzzMemOps checks the sparse physical memory and its counting views
# under all of them against a flat byte-array reference model, and
# FuzzTLBOps checks the indexed TLB against the map-based one it replaced,
# and FuzzFrameAllocOps the run-stack frame allocator against the
# stack-of-ints one it replaced.
# FuzzReadRecord holds the shared record reader to ReadRecord through
# reused buffers of every capacity.
# Long exploratory runs stay manual (go test -fuzz=<target> <pkg>).
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzMemOps -fuzztime 10s ./internal/phys
	$(GO) test -run '^$$' -fuzz FuzzTLBOps -fuzztime 10s ./internal/hw
	$(GO) test -run '^$$' -fuzz FuzzFrameAllocOps -fuzztime 10s ./internal/phys
	$(GO) test -run '^$$' -fuzz FuzzReadRecord -fuzztime 10s ./internal/layout
	$(GO) test -run '^$$' -fuzz FuzzRecordDecode -fuzztime 10s ./internal/layout
	$(GO) test -run '^$$' -fuzz FuzzFrameSalvage -fuzztime 10s ./internal/layout
	$(GO) test -run '^$$' -fuzz FuzzTornWrite -fuzztime 10s ./internal/disk
	$(GO) test -run '^$$' -fuzz FuzzSpanBuild -fuzztime 10s ./internal/spans

# owstat-smoke drives the metrics plane end to end at the CLI surface:
# owsim emits a snapshot, owstat renders it, and a self-diff must report
# zero deltas (any nondeterminism in render/diff shows up here first).
# The snapshot lands in .artifacts/ so CI can upload it.
owstat-smoke: build
	mkdir -p .artifacts
	$(GO) run ./cmd/owsim -app vi -seed 7 -metrics-json .artifacts/metrics.json >/dev/null
	$(GO) run ./cmd/owstat render .artifacts/metrics.json >/dev/null
	$(GO) run ./cmd/owstat diff .artifacts/metrics.json .artifacts/metrics.json | grep -q identical

# wal-check is the WAL recovery-invariant gate: a short seeded campaign over
# both WAL protocol variants under the block-layer crash model with
# cold-reboot recovery. The buggy variant (no fsync between the records and
# the COMMIT) must be caught losing data at least once, and the fixed
# variant must survive every post-crash disk audit — both deterministically,
# at any worker width.
wal-check:
	$(GO) test -run TestWALInvariantCampaign -v ./internal/experiment
	$(GO) test -run TestWALCrashPointSweep ./internal/workload

# verify is the pre-merge gate: build, the gofmt check, vet, owvet lint,
# full tests, race pass, a short fuzz burst over the crash-kernel decoder
# surface, the owstat metrics smoke check, the WAL data-survival campaign
# gate, the fleet-recovery smoke (streaming resurrection over a small
# population) and the benchmark module's tests.
verify: build fmt vet lint test race fuzz-short owstat-smoke wal-check fleet-smoke bench-test

# A small-population fleet recovery end to end: index-assisted discovery,
# tier admission, pipelined commit, per-tier table.
fleet-smoke:
	$(GO) test -run 'TestFleetRecoverySmoke|TestFleetCorruptIndexFallsBack' ./internal/experiment

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-test runs the tests of the two-clock benchmark (bench/, a module of
# its own that imports core, phys and experiment, so `go test ./...` never
# compiles it): every workload shrunk to two cycles, outputs checked.
bench-test:
	cd bench && $(GO) test .

# bench-diff re-measures the perf-trajectory scenarios at the checked-in
# snapshot's seed and fails on any modeled-time metric regressing more
# than 10% against BENCH_10.json (the fleet streaming baseline — the gate
# covers the per-tier first-resume and discovery-prologue columns too).
bench-diff: build
	$(GO) run ./cmd/owbench -bench-diff BENCH_10.json

campaign:
	$(GO) run ./cmd/owcampaign -n 100
