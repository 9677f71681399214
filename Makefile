# Tier-1 entry point: `make check` is what CI (and the ROADMAP's
# tier-1 verify) runs.  It must stay green on every commit.

GO ?= go

.PHONY: check build test race vet fmt lint fuzz fuzz-smoke check-suite bench bench-smoke perfbench-test

check: fmt vet lint build test race fuzz-smoke check-suite perfbench-test bench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The service and the parallel drivers make concurrency a first-class
# feature; the race detector keeps it honest.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Repo-invariant linter (cmd/eprelint): CFG edges only written through
# the marking helpers, deterministic pass bodies (no wall clock, no
# map-order-dependent output), scratch-arena borrows always released.
# Runs beside go vet; both are part of `check`.
lint:
	$(GO) run ./cmd/eprelint .

# Fails (and lists the files) if anything is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Short fuzz sessions over the parser round-trip corpus, the PL/0
# front end and the service's two optimization endpoints (not part of
# `check`; the seeds already run under plain `go test`).
fuzz:
	$(GO) test ./internal/ir/ -fuzz FuzzParseRoundTrip -fuzztime 30s
	$(GO) test ./internal/pl0/ -fuzz FuzzPL0Parse -fuzztime 30s
	$(GO) test ./internal/serve/ -fuzz FuzzHandlers -fuzztime 30s

# Differential-fuzzing smoke test, part of `check`: 200 generated
# programs at fixed seeds, every optimization level interpreted
# against the unoptimized reference, then 200 more in each
# cross-backend mode (-gvn-diff: the GVN-carrying levels run under
# both the AWZ and the precise backend; -pre-diff: the PRE-carrying
# levels run under drechsler, lcm and lospre — the independent
# implementations oracle each other).  The 500 -pre-diff programs from
# seed 7000 include 7357, whose critical-edge branch once read a φ
# copy's destination (ssa.Destruct's lost copy).  Any miscompile,
# verifier reject, panic, or runaway exits nonzero with a shrunk
# reproducer.
fuzz-smoke:
	$(GO) run ./cmd/epre fuzz -seed 1 -n 200 -workers 4
	$(GO) run ./cmd/epre fuzz -seed 1000 -n 200 -workers 4 -gvn-diff
	$(GO) run ./cmd/epre fuzz -seed 2000 -n 200 -workers 4 -pre-diff
	$(GO) run ./cmd/epre fuzz -seed 7000 -n 500 -workers 4 -pre-diff
	$(GO) run ./cmd/epre fuzz -seed 3000 -n 150 -workers 4 -call-heavy \
		-gvn-diff -pre-diff

# The whole benchmark suite under checked optimization, part of
# `check`: with EPRE_CHECK=1 every pass application that moves a
# function's mutation generation is re-verified, DefUse-checked and
# translation-validated on generated inputs (degenerate ones included),
# and any error diagnostic fails the table.  Once per PRE backend, and
# once with the precise GVN backend.
check-suite:
	EPRE_CHECK=1 $(GO) run ./cmd/epre table1 -parallel 2 -pre drechsler
	EPRE_CHECK=1 $(GO) run ./cmd/epre table1 -parallel 2 -pre lcm
	EPRE_CHECK=1 $(GO) run ./cmd/epre table1 -parallel 2 -pre lospre
	EPRE_CHECK=1 $(GO) run ./cmd/epre table1 -parallel 2 -gvn precise

# perfbench is a nested module (BENCHMARK.json runs it), so the root
# `./...` never reaches its own tests; part of `check`.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# One iteration of the PRE, whole-suite sweep and baseline-tail
# benchmarks, part of `check`: keeps them building and running (each op
# must succeed), not a measurement.  -benchmem prints their B/op and
# allocs/op, and the tail passes' ns/op, to read; no figure is gated.
bench-smoke:
	$(GO) test -run '^$$' -bench 'PRE|SuiteSweep|BaselineTail' -benchtime 1x -benchmem .

# Performance tracking, one harness: the Go micro-benchmarks, then the
# benchmark's three workloads (see BENCHMARK.json and perfbench/) for
# 15 s each.  Each perfbench run prints a stamp line and one JSON result
# line with every end-to-end metric.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	for w in suite-opt serve-miss serve-cached; do \
		bash perfbench/run.sh --workload $$w --seconds 15 --trace 0 || exit 1; \
	done
