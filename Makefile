# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet lint lint-fixtures test bench bench-scale parscale figures figures-check faults knee ecod-smoke race cover clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Determinism/correctness linter (see DESIGN.md "Determinism contract").
# Always writes the machine-readable report; CI uploads it as an artifact.
lint:
	$(GO) run ./cmd/ecolint -report out/ecolint.json ./...

# Exit-code contract of cmd/ecolint, asserted against the linter's own
# fixtures: 0 on a clean package, 1 on findings, 2 on a load error. Uses a
# built binary because `go run` collapses every nonzero exit to 1.
lint-fixtures:
	$(GO) build -o out/ecolint ./cmd/ecolint
	out/ecolint ./internal/lint/testdata/src/fixture/clean
	out/ecolint ./internal/lint/testdata/src/fixture/... >/dev/null 2>&1; test $$? -eq 1
	out/ecolint ./internal/lint/testdata/src/broken >/dev/null 2>&1; test $$? -eq 2

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# One benchmark per paper figure plus the ablations (see bench_test.go).
bench:
	$(GO) test -bench=. -benchmem ./...

# Demand-kernel scalability sweep (400 -> 4,000 servers, cached vs naive);
# writes out/BENCH_demand_kernel.json and verifies the runs are bit-identical.
bench-scale:
	$(GO) run ./cmd/ecobench -demand-bench -out out

# Parallel-engine speedup curves (2,000 -> 10,000 servers, workers 0 -> 8);
# writes out/BENCH_parallel_scale.json and verifies every pooled run is
# bit-identical to the sequential baseline. See DESIGN.md "Parallel
# execution & determinism".
# The bench writer refuses GOMAXPROCS=1; force at least 2 so a constrained
# container still produces a report (flagged oversubscribed when the OS
# grants fewer real cores than workers).
parscale:
	GOMAXPROCS=$$(n=$$(nproc); if [ $$n -lt 2 ]; then echo 2; else echo $$n; fi) \
		$(GO) run ./cmd/ecobench -par-bench -out out -par-floor .github/parbench_floor.json

# Regenerate every figure CSV at paper scale into ./out, alongside the run
# manifest (out/run.json) and the JSONL event journal (out/journal.jsonl).
figures:
	$(GO) run ./cmd/ecobench -out out -scale 1.0

# Byte-exact figure gate, run the same way in CI: regenerate every figure
# and both assembled reports at paper scale into ./out-figs and diff each
# checked-in out/*.csv, out/REPORT.md and out/report.html against it.
# set -e makes any differing file fail the target, not just the last one.
figures-check:
	$(GO) run ./cmd/ecobench -out out-figs -scale 1.0 -markdown out-figs/REPORT.md -html out-figs/report.html
	set -e; for f in out/*.csv out/REPORT.md out/report.html; do diff "$$f" "out-figs/$$(basename "$$f")"; done

# Fault-injection sweep (crashes, wake failures, lossy fabric) at full scale:
# the MTBF x MTTR grid behind out/faults.csv. See DESIGN.md "Failure semantics".
faults:
	$(GO) run ./cmd/ecobench -out out -experiments faults

# Overload-knee sweep at full scale: stepped churn-rate ramps with an
# overload stop-rule, ecoCloud vs BFD, reproducing the checked-in
# out/knee.csv (about a second). See DESIGN.md "Overload knee".
knee:
	$(GO) run ./cmd/ecobench -out out -experiments knee

# Real-process deployment smoke: a 3-node ecod cluster on loopback runs a
# short protocol day twice from the same seed; the merged summaries must
# diff clean. See DESIGN.md "Real-process deployment".
ecod-smoke:
	sh scripts/ecod_smoke.sh

# Remove run artifacts but keep the checked-in figure CSVs and report.
clean:
	rm -f out/run.json out/journal.jsonl out/*.pprof out/ecolint.json out/ecolint
