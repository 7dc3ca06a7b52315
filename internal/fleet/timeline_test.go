package fleet

import (
	"strings"
	"testing"
	"time"

	"contory/internal/timeline"
)

// TestFleetTimelinePartitionAlertAttribution is the acceptance scenario: a
// link-partition chaos profile plus an impossible latency objective must
// produce an alert whose cause attribution names a partition fault.
func TestFleetTimelinePartitionAlertAttribution(t *testing.T) {
	spec := Spec{
		Name: "partition-slo", Phones: 40, Seed: 23, Duration: 3 * time.Minute,
		Lanes: 16, GPSFraction: 0.5, PublisherFraction: 0.4,
		Workload: Workload{GPSPeriodic: 0.4, AdHocPeriodic: 0.3, InfraOneShot: 0.2},
		Chaos:    ChaosSpec{Profile: "partition", Rate: 2},
		Timeline: TimelineSpec{
			Enabled:  true,
			Interval: 10 * time.Second,
			// Any completed first item violates: the episode stays open for
			// the whole run, so it must accumulate the partition fault that
			// overlaps it.
			SLOs: []timeline.SLO{{Name: "latency", Metric: timeline.MetricP99FirstItemMs, Op: "<", Threshold: 1}},
		},
	}
	e, err := New(spec)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if e.Injector() == nil || len(e.Injector().Faults()) == 0 {
		t.Fatalf("partition profile injected no faults")
	}
	sum, err := e.Run(4)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum.Timeline == nil {
		t.Fatalf("summary has no timeline report")
	}
	if len(sum.Timeline.Alerts) == 0 {
		t.Fatalf("impossible latency SLO fired no alert; slos: %+v", sum.Timeline.SLOs)
	}
	attributed := false
	for _, a := range sum.Timeline.Alerts {
		if a.SLO != "latency" {
			continue
		}
		for _, c := range a.Causes {
			if strings.Contains(c, "partition") {
				attributed = true
			}
		}
	}
	if !attributed {
		t.Fatalf("no latency alert names a partition fault; alerts: %+v", sum.Timeline.Alerts)
	}
}

// TestFleetTimelineSpecValidation rejects malformed objectives at build
// time rather than silently normalizing them mid-run.
func TestFleetTimelineSpecValidation(t *testing.T) {
	spec := Spec{
		Phones: 4, Duration: time.Minute,
		Timeline: TimelineSpec{
			Enabled: true,
			SLOs:    []timeline.SLO{{Metric: "bogus", Op: "<", Threshold: 1}},
		},
	}
	if _, err := New(spec); err == nil {
		t.Fatalf("bogus timeline SLO passed spec validation")
	}
}
