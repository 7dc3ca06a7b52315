package main

import (
	"fmt"
	"sort"
	"time"

	"contory/internal/fleet"
	"contory/internal/timeline"
)

// Seeds. The benchmark runs at defaultSeed unless told otherwise; a claimed
// gain must also hold at holdoutSeed, which no change may be tuned on.
const (
	defaultSeed = 42
	holdoutSeed = 20061127
)

// workloads maps each workload name to the fleet scenario it runs at a
// given seed. Every workload is an open loop in virtual time: phones submit
// on seeded schedules whether or not earlier queries have finished. Why each
// one exists is recorded in README.md.
var workloads = map[string]func(seed int64) (fleet.Spec, error){
	"city-5k":               citySpec,
	"overload-4k":           overloadSpec,
	"gps-chaos-observed-3k": gpsChaosSpec,
}

// workloadNames lists the workloads in a stable order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// citySpec is the scale point: contory-load's default fleet at 5,000
// phones, mobile and churning, with every optional plane off.
func citySpec(seed int64) (fleet.Spec, error) {
	return fleet.Spec{
		Name:            "city-5k",
		Phones:          5000,
		Seed:            seed,
		Duration:        10 * time.Minute,
		MobilitySpeedMS: 1,
		Workload:        fleet.Workload{Period: 30 * time.Second},
		Churn:           fleet.Churn{LeaveJoinPerMin: 0.02, LinkFailuresPerMin: 5},
	}, nil
}

// overloadSpec is the contention point: static phones bursting distinct
// and duplicate extInfra queries onto their single UMTS channel, with the
// answer cache and QoS admission on (the qos-smoke settings).
func overloadSpec(seed int64) (fleet.Spec, error) {
	return fleet.Spec{
		Name:     "overload-4k",
		Phones:   4000,
		Seed:     seed,
		Duration: 10 * time.Minute,
		Workload: fleet.Workload{Overload: 0.4, DupHeavy: 0.3, Period: 60 * time.Second},
		Cache:    fleet.CacheSpec{Enabled: true, TTL: 8 * time.Minute},
		QoS: fleet.QoSSpec{
			Enabled: true, Rate: 0.5, Burst: 2, QueueCap: 2, MaxActive: 2,
		},
	}, nil
}

// gpsChaosSpec is Fig. 5 failover at fleet scale with every observability
// plane on: BT-GPS carriers under the mixed chaos profile, traced, sampled
// by the flight recorder and audited.
func gpsChaosSpec(seed int64) (fleet.Spec, error) {
	slo, err := timeline.ParseSLO("p99_first_item_ms<5000")
	if err != nil {
		return fleet.Spec{}, fmt.Errorf("gps-chaos slo: %w", err)
	}
	return fleet.Spec{
		Name:        "gps-chaos-observed-3k",
		Phones:      3000,
		Seed:        seed,
		Duration:    4 * time.Minute,
		GPSFraction: 0.3,
		Workload: fleet.Workload{
			GPSPeriodic:   0.4,
			LocalPeriodic: 0.2,
			AdHocPeriodic: 0.1,
			InfraOneShot:  0.2,
			Period:        30 * time.Second,
		},
		Chaos:    fleet.ChaosSpec{Profile: "mixed"},
		Trace:    fleet.TraceSpec{Enabled: true},
		Timeline: fleet.TimelineSpec{Enabled: true, Interval: 10 * time.Second, SLOs: []timeline.SLO{slo}},
		Audit:    fleet.AuditSpec{Enabled: true},
	}, nil
}
