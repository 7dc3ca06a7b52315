GO ?= go

.PHONY: all check build fmt-check vet staticcheck test race bench experiments examples cover clean load-smoke load-bench perf-smoke

all: check

# check is the full pre-merge gate: formatting, build, vet, staticcheck
# (when installed), tests, the race detector, the five example programs
# (examples/aggregate is the only non-test caller of ProcessCxtQueryMulti),
# the fleet CLI end to end and the hot-path microbenchmarks. The fleet
# scenarios' determinism matrix (TestScenarios over
# testdata/scenarios/*.json: w1 vs w8 summaries and trace exports, audit
# violations) runs inside test and race.
check: fmt-check build vet staticcheck test race examples load-smoke perf-smoke

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
# up in git status.
load-smoke:
	$(GO) run -race ./cmd/contory-load -spec testdata/scenarios/load.json -workers 4 -stats-out BENCH_fleet_smoke.json

# perf-smoke compiles and runs the scheduler, spatial-index,
# energy-integration and NMEA-burst microbenchmarks once each, so a broken
# hot path fails the gate without paying for full measurement.
perf-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/vclock ./internal/simnet ./internal/energy ./internal/gps

# load-bench regenerates BENCH_fleet.json: wall-clock scaling of the fleet
# engine at 1k/2k/5k phones over ten virtual minutes. With COUNT=n (needs
# benchstat on PATH) the sweep repeats n times, accumulating Go-benchmark
# format lines in BENCH_fleet.txt and summarising run-to-run variance with
# benchstat.
load-bench:
ifeq ($(COUNT),)
	$(GO) run ./cmd/contory-load -spec testdata/scenarios/load.json -duration 10m -sweep 1000,2000,5000 -bench-out BENCH_fleet.json
else
	@command -v benchstat >/dev/null 2>&1 || { echo "load-bench COUNT=$(COUNT) needs benchstat on PATH"; exit 1; }
	rm -f BENCH_fleet.txt
	for i in $$(seq 1 $(COUNT)); do \
		$(GO) run ./cmd/contory-load -spec testdata/scenarios/load.json -duration 10m \
			-sweep 1000,2000,5000 -bench-out BENCH_fleet.json -bench-go BENCH_fleet.txt || exit 1; \
	done
	benchstat BENCH_fleet.txt
endif

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
	rm -f cover.out test_output.txt bench_output.txt BENCH_fleet.txt
