GO ?= go

.PHONY: all check build fmt-check vet staticcheck test race bench experiments examples cover clean load-smoke load-bench chaos-smoke trace-smoke cache-smoke qos-smoke audit-smoke timeline-smoke perf-smoke

all: check

# check is the full pre-merge gate: formatting, build, vet, staticcheck
# (when installed), tests, the race detector, the five example programs
# (examples/aggregate is the only non-test caller of ProcessCxtQueryMulti),
# a small fleet-load smoke run, a determinism-checked chaos run, a
# determinism-checked trace export, a determinism-checked answer-cache run,
# a determinism-checked QoS overload run, an invariant-audited
# chaos+qos+cache run, a determinism-checked flight-recorder run and a
# scaling-regression perf smoke.
check: fmt-check build vet staticcheck test race examples load-smoke chaos-smoke trace-smoke cache-smoke qos-smoke audit-smoke timeline-smoke perf-smoke

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

# load-smoke drives a small fleet through the load engine under the race
# detector: the package's smoke + worker-determinism tests, then the CLI
# end to end with its summary artifact.
load-smoke:
	$(GO) test -race -count=1 -run 'TestFleetSmoke|TestFleetDeterministicAcrossWorkers' ./internal/fleet
	$(GO) run -race ./cmd/contory-load -phones 200 -duration 2m -workers 4 -stats-out BENCH_fleet_smoke.json

# chaos-smoke is the fault-injection gate: the chaos acceptance test under
# the race detector, then the same seeded chaos scenario through the CLI at
# 1 and 8 workers — the two summaries must be byte-identical.
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestFleetChaos|TestFailoverChaosProfiles' ./internal/fleet ./internal/core
	$(GO) run ./cmd/contory-load -phones 120 -duration 3m -seed 7 -chaos mixed -gps 0.3 \
		-mobility 0 -churn-leave 0 -churn-links 0 -workers 1 -stats-out BENCH_chaos_w1.json
	$(GO) run ./cmd/contory-load -phones 120 -duration 3m -seed 7 -chaos mixed -gps 0.3 \
		-mobility 0 -churn-leave 0 -churn-links 0 -workers 8 -stats-out BENCH_chaos_w8.json
	cmp BENCH_chaos_w1.json BENCH_chaos_w8.json
	rm -f BENCH_chaos_w1.json BENCH_chaos_w8.json

# trace-smoke is the distributed-tracing gate: the tracing unit tests and
# the fleet trace-determinism/schema tests under the race detector, then a
# seeded chaos run exported as Chrome trace-event JSON at 1 and 8 workers —
# the two exports must be byte-identical (same spans, same timestamps, same
# order, regardless of parallelism).
trace-smoke:
	$(GO) test -race -count=1 ./internal/tracing
	$(GO) test -race -count=1 -run 'TestFleetTrace' ./internal/fleet
	$(GO) run ./cmd/contory-load -phones 60 -duration 2m -seed 7 -chaos mixed -gps 0.3 \
		-mobility 0 -churn-leave 0 -churn-links 0 -workers 1 -trace-out BENCH_trace_w1.json
	$(GO) run ./cmd/contory-load -phones 60 -duration 2m -seed 7 -chaos mixed -gps 0.3 \
		-mobility 0 -churn-leave 0 -churn-links 0 -workers 8 -trace-out BENCH_trace_w8.json
	cmp BENCH_trace_w1.json BENCH_trace_w8.json
	rm -f BENCH_trace_w1.json BENCH_trace_w8.json

# cache-smoke is the shared-provisioning-plane gate: the answer-cache and
# stream-multiplexer tests under the race detector, then a duplicate-heavy
# fleet scenario with the cache on through the CLI at 1 and 8 workers — the
# two summaries must be byte-identical.
cache-smoke:
	$(GO) test -race -count=1 -run 'TestAnswerCache|TestCancelMultiplexedSubscriberKeepsStream|TestFleetCache' ./internal/core ./internal/fleet
	$(GO) run ./cmd/contory-load -phones 150 -duration 3m -seed 11 -dup 0.6 -cache \
		-mobility 0 -churn-leave 0 -churn-links 0 -workers 1 -stats-out BENCH_cache_w1.json
	$(GO) run ./cmd/contory-load -phones 150 -duration 3m -seed 11 -dup 0.6 -cache \
		-mobility 0 -churn-leave 0 -churn-links 0 -workers 8 -stats-out BENCH_cache_w8.json
	cmp BENCH_cache_w1.json BENCH_cache_w8.json
	rm -f BENCH_cache_w1.json BENCH_cache_w8.json

# qos-smoke is the QoS-provisioning-plane gate: the admission/scheduling/
# shedding tests under the race detector, then a seeded overload fleet with
# QoS on through the CLI at 1 and 8 workers — the two summaries (Summary.QoS
# included) must be byte-identical.
qos-smoke:
	$(GO) test -race -count=1 -run 'TestController|TestQoS|TestFleetQoS' ./internal/qos ./internal/core ./internal/fleet
	$(GO) run ./cmd/contory-load -phones 48 -duration 10m -period 60s -seed 7 -overload 1 \
		-cache -cache-ttl 8m -qos -qos-rate 0.5 -qos-burst 2 -qos-queue 2 -qos-slots 2 \
		-mobility 0 -churn-leave 0 -churn-links 0 -workers 1 -stats-out BENCH_qos_w1.json
	$(GO) run ./cmd/contory-load -phones 48 -duration 10m -period 60s -seed 7 -overload 1 \
		-cache -cache-ttl 8m -qos -qos-rate 0.5 -qos-burst 2 -qos-queue 2 -qos-slots 2 \
		-mobility 0 -churn-leave 0 -churn-links 0 -workers 8 -stats-out BENCH_qos_w8.json
	cmp BENCH_qos_w1.json BENCH_qos_w8.json
	rm -f BENCH_qos_w1.json BENCH_qos_w8.json

# audit-smoke is the conservation-law gate: the auditor's self-tests (it
# must catch a seeded double slot release and a leaked timer), the qos/
# facade regression tests and the fleet leak sweep under the race detector,
# then an audited chaos+qos+cache fleet through the CLI at 1 and 8 workers —
# zero violations (the CLI exits non-zero otherwise) and the two summaries,
# audit report included, must be byte-identical.
audit-smoke:
	$(GO) test -race -count=1 ./internal/audit
	$(GO) test -race -count=1 -run 'TestAuditCatches|TestQoSPendingGaugeReconciles|TestShedVsCancelSameVclock|TestGroupedFailoverMuxSubscribersReturnToZero|TestDoneUnderflowDetected|TestFleetNoLeaks|TestFleetAuditDeterministicAcrossWorkers' ./internal/core ./internal/qos ./internal/fleet
	$(GO) run ./cmd/contory-load -phones 60 -duration 2m -seed 19 -chaos mixed -gps 0.3 \
		-cache -qos -audit \
		-mobility 0 -churn-leave 0 -churn-links 0 -workers 1 -stats-out BENCH_audit_w1.json
	$(GO) run ./cmd/contory-load -phones 60 -duration 2m -seed 19 -chaos mixed -gps 0.3 \
		-cache -qos -audit \
		-mobility 0 -churn-leave 0 -churn-links 0 -workers 8 -stats-out BENCH_audit_w8.json
	cmp BENCH_audit_w1.json BENCH_audit_w8.json
	rm -f BENCH_audit_w1.json BENCH_audit_w8.json

# timeline-smoke is the flight-recorder gate: the timeline sampler/SLO unit
# tests and the fleet timeline-determinism/attribution tests under the race
# detector, then a seeded chaos+qos fleet with the recorder and two SLOs on
# through the CLI at 1 and 8 workers — the two timeline reports (windows,
# derived series and alert log) must be byte-identical.
timeline-smoke:
	$(GO) test -race -count=1 ./internal/timeline
	$(GO) test -race -count=1 -run 'TestFleetTimeline' ./internal/fleet
	$(GO) run ./cmd/contory-load -phones 60 -duration 2m -seed 7 -chaos mixed -gps 0.3 \
		-qos -overload 0.3 -timeline -timeline-interval 10s \
		-slo 'p99_first_item_ms<5000,qos_shed_rate<0.9' \
		-mobility 0 -churn-leave 0 -churn-links 0 -workers 1 -timeline-out BENCH_timeline_w1.json
	$(GO) run ./cmd/contory-load -phones 60 -duration 2m -seed 7 -chaos mixed -gps 0.3 \
		-qos -overload 0.3 -timeline -timeline-interval 10s \
		-slo 'p99_first_item_ms<5000,qos_shed_rate<0.9' \
		-mobility 0 -churn-leave 0 -churn-links 0 -workers 8 -timeline-out BENCH_timeline_w8.json
	cmp BENCH_timeline_w1.json BENCH_timeline_w8.json
	rm -f BENCH_timeline_w1.json BENCH_timeline_w8.json

# perf-smoke is the scaling-regression gate: the scheduler, spatial-index,
# energy-integration and NMEA-burst microbenchmarks compile and run once
# each (so a broken hot path fails the gate, without paying for full
# measurement), then a short fleet with
# mobility and churn ON — the workload that exercises incremental grid
# maintenance, event pooling and the sharded scheduler — runs at
# GOMAXPROCS=1/-workers 1 and GOMAXPROCS=8/-workers 8: the two summaries
# must be byte-identical.
perf-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/vclock ./internal/simnet ./internal/energy ./internal/gps
	GOMAXPROCS=1 $(GO) run ./cmd/contory-load -phones 150 -duration 2m -seed 7 \
		-workers 1 -stats-out BENCH_perf_w1.json
	GOMAXPROCS=8 $(GO) run ./cmd/contory-load -phones 150 -duration 2m -seed 7 \
		-workers 8 -stats-out BENCH_perf_w8.json
	cmp BENCH_perf_w1.json BENCH_perf_w8.json
	rm -f BENCH_perf_w1.json BENCH_perf_w8.json

# load-bench regenerates BENCH_fleet.json: wall-clock scaling of the fleet
# engine at 1k/2k/5k phones over ten virtual minutes. With COUNT=n (needs
# benchstat on PATH) the sweep repeats n times, accumulating Go-benchmark
# format lines in BENCH_fleet.txt and summarising run-to-run variance with
# benchstat.
load-bench:
ifeq ($(COUNT),)
	$(GO) run ./cmd/contory-load -sweep 1000,2000,5000 -duration 10m -bench-out BENCH_fleet.json
else
	@command -v benchstat >/dev/null 2>&1 || { echo "load-bench COUNT=$(COUNT) needs benchstat on PATH"; exit 1; }
	rm -f BENCH_fleet.txt
	for i in $$(seq 1 $(COUNT)); do \
		$(GO) run ./cmd/contory-load -sweep 1000,2000,5000 -duration 10m \
			-bench-out BENCH_fleet.json -bench-go BENCH_fleet.txt || exit 1; \
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
	rm -f cover.out test_output.txt bench_output.txt BENCH_fleet_smoke.json \
		BENCH_chaos_w1.json BENCH_chaos_w8.json \
		BENCH_trace_w1.json BENCH_trace_w8.json \
		BENCH_cache_w1.json BENCH_cache_w8.json \
		BENCH_qos_w1.json BENCH_qos_w8.json \
		BENCH_audit_w1.json BENCH_audit_w8.json \
		BENCH_timeline_w1.json BENCH_timeline_w8.json \
		BENCH_perf_w1.json BENCH_perf_w8.json BENCH_fleet.txt
