package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"contory/internal/fleet"
	cmetrics "contory/internal/metrics"
)

// hist builds a first-item histogram over DefaultLatencyBucketsMs from
// per-bucket (not cumulative) counts.
func hist(name string, perBucket map[string]int64, minV, maxV float64) cmetrics.HistogramPoint {
	h := cmetrics.HistogramPoint{Name: name, Min: minV, Max: maxV}
	les := []string{"1", "2", "5", "10", "20", "50", "100", "200", "500",
		"1000", "2000", "5000", "10000", "30000", "60000", "+Inf"}
	for _, le := range les {
		h.Count += perBucket[le]
		h.Buckets = append(h.Buckets, cmetrics.Bucket{Le: le, Count: h.Count})
	}
	return h
}

func TestMergeFirstItemQuantiles(t *testing.T) {
	snap := cmetrics.Snapshot{Histograms: []cmetrics.HistogramPoint{
		hist("core.cache.served_age_ms", map[string]int64{"1": 1000}, 0.5, 0.5),
		hist(firstItemPrefix+"cache", map[string]int64{"1": 40}, 0.2, 0.9),
		hist(firstItemPrefix+"extInfra", map[string]int64{"2000": 50, "5000": 10}, 1200, 4000),
		hist(firstItemPrefix+"intSensor", nil, 0, 0),
	}}
	m := mergeFirstItem(snap)
	if m.Count != 100 || m.Min != 0.2 || m.Max != 4000 {
		t.Fatalf("merged count/min/max = %d/%v/%v, want 100/0.2/4000", m.Count, m.Min, m.Max)
	}
	// Rank 50 is the 10th of 50 samples in the bucket ending at 2000, whose
	// lower edge is the last occupied bucket's bound, 1; rank 99 is the 9th
	// of 10 in (2000, 5000], capped at Max.
	if got, want := m.Quantile(0.5), 1+1999*10.0/50; math.Abs(got-want) > 1e-9 {
		t.Errorf("p50 = %v, want %v", got, want)
	}
	if got, want := m.Quantile(0.99), 2000+2000*9.0/10; math.Abs(got-want) > 1e-9 {
		t.Errorf("p99 = %v, want %v", got, want)
	}
}

// TestMergeFirstItemMatchesFleet checks the benchmark's merged p99 against
// the one fleet's QoS report computes from the same snapshot.
func TestMergeFirstItemMatchesFleet(t *testing.T) {
	e, err := fleet.New(fleet.Spec{
		Phones: 48, Seed: 7, Duration: 5 * time.Minute,
		Workload: fleet.Workload{Overload: 1, Period: 60 * time.Second},
		Cache:    fleet.CacheSpec{Enabled: true, TTL: 8 * time.Minute},
		QoS:      fleet.QoSSpec{Enabled: true, Rate: 0.5, Burst: 2, QueueCap: 2, MaxActive: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	m := mergeFirstItem(s.Snapshot)
	if m.Count == 0 || s.QoS == nil {
		t.Fatalf("run served %d first items, QoS report %v", m.Count, s.QoS)
	}
	if got, want := m.Quantile(0.99), s.QoS.P99FirstItemMs; got != want {
		t.Errorf("merged p99 = %v, fleet's = %v", got, want)
	}
}

func TestServedRatio(t *testing.T) {
	s := fleet.Summary{
		QueriesSubmitted: 10,
		Rejected:         3,
		Snapshot: cmetrics.Snapshot{Histograms: []cmetrics.HistogramPoint{
			hist("core.cache.served_age_ms", map[string]int64{"1": 9}, 1, 1),
			hist(firstItemPrefix+"cache", map[string]int64{"1": 2}, 0.1, 0.2),
			hist(firstItemPrefix+"intSensor", map[string]int64{"30000": 3}, 30000, 30000),
		}},
	}
	if got := servedRatio(s); got != 0.5 {
		t.Errorf("served ratio = %v, want 0.5", got)
	}
	if got := servedRatio(fleet.Summary{}); got != 0 {
		t.Errorf("served ratio with nothing submitted = %v, want 0", got)
	}
}

func TestReadSummaryReportsOnlyDeclaredMetrics(t *testing.T) {
	spec, err := gpsChaosSpec(3)
	if err != nil {
		t.Fatal(err)
	}
	spec.Phones, spec.Duration = 60, 2*time.Minute
	e, err := fleet.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	modeled, counts, _ := readSummary(spec, s)
	declared := make(map[string]bool)
	for _, pl := range perLayer {
		declared[pl.name] = true
	}
	for name := range counts {
		if !declared[name] {
			t.Errorf("counter %s is not a declared per-layer metric", name)
		}
	}
	for _, name := range []string{"tracing.spans", "chaos.faults", "audit.checks", "refs.bt.gps_fixes"} {
		if counts[name] == 0 {
			t.Errorf("%s = 0 on an observed GPS chaos run", name)
		}
	}
	if modeled["served_ratio"] <= 0 || modeled["joules_per_item"] <= 0 {
		t.Errorf("modeled = %v", modeled)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's metric lists and the
// metrics the benchmark reports in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, code has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not in the code", w.Name)
		}
	}

	e2e := endToEnd([]iteration{{Modeled: map[string]float64{}}}, 0)
	if len(doc.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, the code reports %d", len(doc.EndToEnd), len(e2e))
	}
	for _, m := range doc.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): code reports %+v", m.Name, m.Unit, got)
		}
	}

	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the code %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if pl := perLayer[i]; m.Name != pl.name || m.Unit != pl.unit || m.Better != pl.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, code %+v", i, m, pl)
		}
	}
	got := layerMetrics(iteration{RunCPUS: 1}, []iteration{{RunCPUS: 1}})
	if len(got) != len(perLayer) {
		t.Errorf("a traced run reports %d per-layer metrics, want %d", len(got), len(perLayer))
	}
}

func TestPaperCheckAtDefaultSeed(t *testing.T) {
	relErr, problems, err := paperCheck(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) > 0 {
		t.Errorf("cells outside tolerance: %v", problems)
	}
	if relErr <= 0 || relErr > 0.1 {
		t.Errorf("mean relative error %v, want in (0, 0.1]", relErr)
	}
}
