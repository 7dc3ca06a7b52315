GO ?= go

.PHONY: all check build fmt-check vet staticcheck test race bench experiments examples cover clean load-smoke perf-smoke fleetbench-check

all: check

# check is the full pre-merge gate: formatting, build, vet, staticcheck
# (when installed), tests, the race detector, the five example programs
# (examples/aggregate is the only non-test caller of ProcessCxtQueryMulti),
# the fleet CLI end to end, the hot-path microbenchmarks and the fleet
# benchmark module. The fleet scenarios' determinism matrix (TestScenarios
# over testdata/scenarios/*.json: w1 vs w8 summaries and trace exports,
# audit violations) runs inside test and race.
check: fmt-check build vet staticcheck test race examples load-smoke perf-smoke fleetbench-check

build:
	$(GO) build ./...

# fmt-check fails when any tracked Go file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is on PATH; the gate never installs it.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# load-smoke runs the race-built fleet CLI once over the load scenario and
# rewrites the committed BENCH_fleet_smoke.json; a summary that moved shows
# up in git status. The CLI only runs scenarios: host cost per workload is
# measured by fleetbench (bash fleetbench/run.sh, see BENCHMARK.json).
load-smoke:
	$(GO) run -race ./cmd/contory-load -spec testdata/scenarios/load.json -workers 4 -stats-out BENCH_fleet_smoke.json

# perf-smoke compiles and runs the scheduler, spatial-index, frame
# send-deliver, power-window-add, energy-interval-read, NMEA-burst,
# GPS-device-tick, GPS-fix, SM-finder-tour, answer-cache-lookup,
# facade-fan-out, query-submission, infrastructure-archive,
# repository-store, event-window-observe, timeline-sample, span and
# audit-tap microbenchmarks once each, so a broken hot path fails the gate
# without paying for full measurement.
perf-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/vclock ./internal/simnet ./internal/energy ./internal/gps ./internal/provider ./internal/sm ./internal/core ./internal/infra ./internal/repo ./internal/query ./internal/timeline ./internal/tracing ./internal/audit

# fleetbench-check builds, vets and tests the fleet benchmark, a nested
# module that the root build, vet and test skip, so an internal API change
# that breaks it fails the gate rather than the benchmark run.
fleetbench-check:
	cd fleetbench && $(GO) build -o /dev/null . && $(GO) vet . && $(GO) test .

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/contory-bench -exp all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/failover
	$(GO) run ./examples/weatherwatcher
	$(GO) run ./examples/regattaclassifier
	$(GO) run ./examples/aggregate

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out test_output.txt bench_output.txt
