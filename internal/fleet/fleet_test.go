package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"contory/internal/metrics"
	"contory/internal/timeline"
)

// scenarioDir holds the checked-in scenario files, relative to this
// package.
const scenarioDir = "../../testdata/scenarios"

// loadScenario parses the checked-in scenario file name.json.
func loadScenario(t testing.TB, name string) Spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(scenarioDir, name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec(data)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return spec
}

// runSpec builds spec, runs it with workers workers at GOMAXPROCS=workers
// and returns the summary, its JSON and, for a traced spec, the Chrome
// export.
func runSpec(t *testing.T, spec Spec, workers int) (sum Summary, js, trace []byte) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	e, err := New(spec)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if sum, err = e.Run(workers); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if js, err = sum.JSON(); err != nil {
		t.Fatalf("JSON: %v", err)
	}
	if spec.Trace.Enabled {
		if trace, err = e.ChromeTrace(); err != nil {
			t.Fatalf("ChromeTrace: %v", err)
		}
	}
	return sum, js, trace
}

// TestScenarios is the engine's determinism and robustness matrix over
// every checked-in scenario file. Each runs at its own seed and the next
// two, and at every seed:
//   - the summary JSON is byte-identical at workers=1/GOMAXPROCS=1 and
//     workers=8/GOMAXPROCS=8;
//   - a traced scenario's Chrome export (timeline tracks included) is
//     byte-identical too;
//   - an audited scenario made checks and found no violation;
//   - a scenario with the flight recorder on recorded a window per
//     interval, and at least one window saw queries;
//   - a traced or recorded scenario rerun with tracing and the recorder
//     off models the same run: observers do not perturb the model.
func TestScenarios(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(scenarioDir, "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenario files in %s (%v)", scenarioDir, err)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			base := loadScenario(t, name)
			for k := int64(0); k < 3; k++ {
				spec := base
				spec.Seed += k
				t.Run(fmt.Sprintf("seed=%d", spec.Seed), func(t *testing.T) {
					sum, serial, serialTrace := runSpec(t, spec, 1)
					_, parallel, parallelTrace := runSpec(t, spec, 8)
					if !bytes.Equal(serial, parallel) {
						t.Fatalf("summary differs between workers=1/GOMAXPROCS=1 and workers=8/GOMAXPROCS=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
							firstDiff(serial, parallel), firstDiff(parallel, serial))
					}
					if !bytes.Equal(serialTrace, parallelTrace) {
						t.Fatalf("Chrome export differs between workers=1 and workers=8:\n%s",
							firstDiff(serialTrace, parallelTrace))
					}
					if spec.Audit.Enabled {
						if sum.Audit.Checks == 0 {
							t.Error("audited run made zero checks: taps are not wired")
						}
						for _, v := range sum.Audit.Violations {
							t.Errorf("violation: %s", v)
						}
					}
					if spec.Trace.Enabled || spec.Timeline.Enabled {
						off := spec
						off.Trace, off.Timeline = TraceSpec{}, TimelineSpec{}
						bare, _, _ := runSpec(t, off, 1)
						observed, unobserved := modelled(t, sum), modelled(t, bare)
						if !bytes.Equal(observed, unobserved) {
							t.Errorf("turning tracing and the recorder off changed the model:\n--- observed ---\n%s\n--- unobserved ---\n%s",
								firstDiff(observed, unobserved), firstDiff(unobserved, observed))
						}
					}
					if rep := sum.Timeline; rep != nil {
						if want := int(spec.Duration / rep.Interval); rep.WindowsTotal < want {
							t.Errorf("timeline recorded %d windows, want >= %d", rep.WindowsTotal, want)
						}
						active := false
						for _, w := range rep.Windows {
							active = active || w.Derived.QueriesSubmitted > 0
						}
						if !active {
							t.Error("no timeline window recorded query activity")
						}
					}
				})
			}
		})
	}
}

// modelled renders what an observer plane may not change: the summary
// without the execution shape (span ends are scheduled events and recorder
// ticks are barriers), the trace and timeline reports, the ring's event
// total and its eviction count, which follows from the total (SLO alerts
// are ring events), and the tracing counters.
func modelled(t *testing.T, s Summary) []byte {
	t.Helper()
	s.Events, s.Batches, s.Groups, s.Barriers = 0, 0, 0, 0
	s.Trace, s.Timeline = nil, nil
	s.Snapshot.EventsTotal, s.Snapshot.EventsDropped = 0, 0
	var counters []metrics.CounterPoint
	for _, c := range s.Snapshot.Counters {
		if !strings.HasPrefix(c.Name, "tracing.") {
			counters = append(counters, c)
		}
	}
	s.Snapshot.Counters = counters
	js, err := s.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	return js
}

// firstDiff returns a short window around the first differing byte, to keep
// failure output readable.
func firstDiff(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := i - 120
	if lo < 0 {
		lo = 0
	}
	hi := i + 120
	if hi > len(a) {
		hi = len(a)
	}
	return a[lo:hi]
}

// TestFleetSmoke checks that a small fleet actually exercises the
// middleware: queries flow, items are delivered, frames cross every medium
// and every device class drains energy.
func TestFleetSmoke(t *testing.T) {
	e, err := New(Spec{Name: "smoke", Phones: 40, Seed: 3, Duration: 2 * time.Minute})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sum, err := e.Run(4)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum.QueriesSubmitted == 0 {
		t.Fatal("no queries submitted")
	}
	if sum.ItemsDelivered == 0 {
		t.Fatal("no items delivered")
	}
	if sum.QueriesPerSec <= 0 {
		t.Fatalf("queries/s = %v", sum.QueriesPerSec)
	}
	if len(sum.Latency) == 0 {
		t.Fatal("no latency histograms populated")
	}
	if sum.Latency["intSensor"].Count == 0 {
		t.Fatal("no intSensor latency samples")
	}
	if sum.Frames["umts"].Delivered == 0 {
		t.Fatal("no UMTS frames delivered")
	}
	total := 0
	for class, ce := range sum.Energy {
		total += ce.Phones
		if ce.Phones > 0 && ce.TotalJoules <= 0 {
			t.Fatalf("class %s drained no energy", class)
		}
	}
	if total != 40 {
		t.Fatalf("energy classes cover %d phones, want 40", total)
	}
	if _, err := e.Run(4); err == nil {
		t.Fatal("second Run should fail")
	}
}

// TestFleetSameSeedSameBytes runs the identical spec twice end to end.
func TestFleetSameSeedSameBytes(t *testing.T) {
	spec := Spec{Name: "twin", Phones: 30, Seed: 99, Duration: time.Minute}
	_, a, _ := runSpec(t, spec, 4)
	_, b, _ := runSpec(t, spec, 4)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different summaries")
	}
}

// TestFleetSeedChangesRun guards against the seed being ignored.
func TestFleetSeedChangesRun(t *testing.T) {
	_, a, _ := runSpec(t, Spec{Phones: 30, Seed: 1, Duration: time.Minute}, 4)
	_, b, _ := runSpec(t, Spec{Phones: 30, Seed: 2, Duration: time.Minute}, 4)
	if bytes.Equal(a, b) {
		t.Fatal("different seeds produced identical summaries")
	}
}

// TestFleetChaos is the acceptance run for fault injection: a seeded chaos
// fleet must inject faults, trigger failovers and attribute every one of
// them to an injected fault. TestScenarios/chaos-gps checks that the same
// scenario stays byte-identical across worker counts.
func TestFleetChaos(t *testing.T) {
	e, err := New(loadScenario(t, "chaos-gps"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if e.Injector() == nil || len(e.Injector().Faults()) == 0 {
		t.Fatal("chaos profile installed no faults")
	}
	sum, err := e.Run(4)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum.Chaos == nil {
		t.Fatal("summary lacks chaos report")
	}
	if sum.Chaos.Faults == 0 {
		t.Fatal("no faults injected")
	}
	if sum.Chaos.Switches == 0 {
		t.Fatal("chaos run triggered no failovers")
	}
	if sum.Chaos.Unattributed != 0 {
		t.Fatalf("%d of %d switches unattributable to injected faults",
			sum.Chaos.Unattributed, sum.Chaos.Switches)
	}
	if sum.ItemsDelivered == 0 {
		t.Fatal("no items delivered under chaos")
	}
}

// TestFleetTraceDeterministicExport is the tracing acceptance run on the
// trace scenario: a traced chaos fleet must retain span trees, report
// attribution in its summary, and export Chrome trace-event JSON whose
// spans all find their parents. TestScenarios/trace checks that the export
// is byte-identical at 1 and 8 workers.
func TestFleetTraceDeterministicExport(t *testing.T) {
	sum, _, a := runSpec(t, loadScenario(t, "trace"), 4)
	if sum.Trace == nil {
		t.Fatal("summary lacks trace attribution report")
	}
	if sum.Trace.Started == 0 || sum.Trace.Retained == 0 || sum.Trace.Spans == 0 {
		t.Fatalf("empty attribution report: %+v", sum.Trace)
	}
	if sum.Trace.Finished < int64(sum.Trace.Retained) {
		t.Fatalf("retained %d traces but only %d finished", sum.Trace.Retained, sum.Trace.Finished)
	}
	if len(sum.Trace.Mechanisms) == 0 {
		t.Fatal("attribution has no mechanism rows")
	}

	// The export must parse as trace-event JSON and reference every span's
	// parent within the same export.
	var doc struct {
		TraceEvents []struct {
			Ph   string            `json:"ph"`
			Pid  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	spans := make(map[string]bool)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans[ev.Args["span"]] = true
		}
	}
	if len(spans) == 0 {
		t.Fatal("export holds no complete events")
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if p := ev.Args["parent"]; p != "" && !spans[p] {
			t.Fatalf("span %s references parent %s missing from the export", ev.Args["span"], p)
		}
	}
}

// TestFleetUntracedHasNoTraceReport guards the zero-cost default: without
// TraceSpec.Enabled the summary must omit the attribution report entirely.
func TestFleetUntracedHasNoTraceReport(t *testing.T) {
	e, err := New(Spec{Phones: 20, Seed: 5, Duration: time.Minute})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sum, err := e.Run(2)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum.Trace != nil {
		t.Fatalf("untraced run produced a trace report: %+v", sum.Trace)
	}
	if e.World().Tracer() != nil {
		t.Fatal("untraced spec built a tracer")
	}
	if _, err := e.ChromeTrace(); err == nil {
		t.Fatal("untraced run exported a Chrome trace")
	}
}

// TestParseSpec pins the scenario-file format: Spec's JSON field names,
// durations as Go duration strings and SLOs in timeline.SLO's JSON form,
// with everything else refused by an error that names the problem.
func TestParseSpec(t *testing.T) {
	got, err := ParseSpec([]byte(`{
		"name": "x", "phones": 3, "duration": "1m30s",
		"workload": {"overload": 1, "period": "20s"},
		"timeline": {"enabled": true, "slos": [{"metric": "p99_first_item_ms", "op": "<", "threshold": 5}]}
	}`))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	want := Spec{
		Name: "x", Phones: 3, Duration: 90 * time.Second,
		Workload: Workload{Overload: 1, Period: 20 * time.Second},
		Timeline: TimelineSpec{Enabled: true, SLOs: []timeline.SLO{
			{Metric: timeline.MetricP99FirstItemMs, Op: "<", Threshold: 5},
		}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseSpec:\n got %+v\nwant %+v", got, want)
	}
	for _, tc := range []struct{ name, in, want string }{
		{"unknown field", `{"phone": 3}`, `spec: unknown field "phone"`},
		{"miscased field", `{"Phones": 3}`, `spec: unknown field "Phones"`},
		{"nested unknown field", `{"workload": {"periods": "1s"}}`, `spec.workload: unknown field "periods"`},
		{"unknown slo field", `{"timeline": {"slos": [{"metrc": "x"}]}}`, `spec.timeline.slos[0]: unknown field "metrc"`},
		{"bad duration", `{"duration": "3 minutes"}`, `spec.duration: time: unknown unit`},
		{"duration as number", `{"duration": 180}`, `spec.duration: want a duration string`},
		{"removed field", `{"wifi_range_m": 50}`, `spec: unknown field "wifi_range_m"`},
		{"wrong type", `{"phones": "3"}`, `Spec.phones of type int`},
		{"trailing data", `{"phones": 3} {"phones": 4}`, `trailing data`},
		{"not json", `phones: 3`, `invalid character`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParseSpec(%s) = %v, want an error containing %q", tc.in, err, tc.want)
			}
		})
	}
}

// TestSpecFieldsAreExercised keeps every scenario setting in use: each
// leaf of Spec's JSON field tree (struct fields recurse; scalars and
// slices such as timeline.slos are leaves) must be set by at least one
// checked-in scenario file. A field no file sets runs only at its default,
// so it belongs in the code as a constant.
func TestSpecFieldsAreExercised(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(scenarioDir, "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenario files in %s (%v)", scenarioDir, err)
	}
	set := make(map[string]bool)
	var mark func(v any, prefix string)
	mark = func(v any, prefix string) {
		obj, _ := v.(map[string]any)
		for k, e := range obj {
			set[prefix+k] = true
			mark(e, prefix+k+".")
		}
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var tree any
		if err := json.Unmarshal(data, &tree); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		mark(tree, "")
	}
	var unset []string
	var walk func(typ reflect.Type, prefix string)
	walk = func(typ reflect.Type, prefix string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			switch {
			case f.Type.Kind() == reflect.Struct:
				walk(f.Type, prefix+name+".")
			case !set[prefix+name]:
				unset = append(unset, prefix+name)
			}
		}
	}
	walk(reflect.TypeOf(Spec{}), "")
	if len(unset) > 0 {
		t.Fatalf("no scenario file sets %d Spec fields: %s", len(unset), strings.Join(unset, ", "))
	}
}

// FuzzFleetSpec feeds scenario files through the whole engine: every input
// must be refused by ParseSpec or New, or run audited to completion with
// the same summary at one worker and four and no audit violation. The
// seed corpus is the checked-in scenarios. Inputs too costly for one fuzz
// iteration are skipped: over 60 phones or 3 minutes, a sub-second period
// or interval, or fault and link-failure rates that schedule events by the
// million.
func FuzzFleetSpec(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join(scenarioDir, "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	subSecond := func(d time.Duration) bool { return d > 0 && d < time.Second }
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		if spec.Phones > 60 || spec.Duration > 3*time.Minute ||
			subSecond(spec.Workload.Period) || subSecond(spec.Timeline.Interval) ||
			spec.Chaos.Rate > 10 || spec.Churn.LinkFailuresPerMin > 100 {
			t.Skip("too costly for one fuzz iteration")
		}
		spec.Audit.Enabled = true
		var sums [2][]byte
		for i, workers := range []int{1, 4} {
			e, err := New(spec)
			if err != nil {
				return
			}
			sum, err := e.Run(workers)
			if err != nil {
				t.Fatalf("Run(%d): %v", workers, err)
			}
			for _, v := range sum.Audit.Violations {
				t.Errorf("workers=%d: violation: %s", workers, v)
			}
			if sums[i], err = sum.JSON(); err != nil {
				t.Fatalf("JSON: %v", err)
			}
		}
		if !bytes.Equal(sums[0], sums[1]) {
			t.Fatalf("summary differs between workers=1 and workers=4:\n%s", firstDiff(sums[0], sums[1]))
		}
	})
}

// TestSpecValidation checks that New refuses each malformed spec with an
// error naming the offending field. A negative knob is refused rather than
// replaced by its default: only zero selects a default.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		field string
		edit  func(*Spec)
	}{
		{"phones", func(s *Spec) { s.Phones = 0 }},
		{"duration", func(s *Spec) { s.Duration = 0 }},
		{"workload fractions", func(s *Spec) { s.Workload = Workload{LocalPeriodic: 0.9, AdHocPeriodic: 0.9} }},
		{"churn.leave_join_per_min", func(s *Spec) { s.Churn.LeaveJoinPerMin = 1.5 }},
		{"unknown chaos profile", func(s *Spec) { s.Chaos.Profile = "no-such-profile" }},
		{"workload.gps_periodic", func(s *Spec) { s.Workload.GPSPeriodic = 1.5 }},
		{"timeline.interval", func(s *Spec) { s.Timeline = TimelineSpec{Enabled: true, Interval: -time.Second} }},
		{"workload.period", func(s *Spec) { s.Workload.Period = -time.Second }},
		{"cache.ttl", func(s *Spec) { s.Cache = CacheSpec{Enabled: true, TTL: -time.Second} }},
		{"chaos.rate", func(s *Spec) { s.Chaos = ChaosSpec{Profile: "mixed", Rate: -1} }},
		{"churn.link_failures_per_min", func(s *Spec) { s.Churn.LinkFailuresPerMin = -3 }},
		{"lanes", func(s *Spec) { s.Lanes = -3 }},
		{"lanes must be <= phones", func(s *Spec) { s.Lanes = 6 }},
		{"mobility_speed_ms", func(s *Spec) { s.MobilitySpeedMS = -1 }},
		{"qos.rate", func(s *Spec) { s.QoS = QoSSpec{Enabled: true, Rate: -0.5} }},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			spec := Spec{Phones: 5, Duration: time.Minute}
			tc.edit(&spec)
			_, err := New(spec)
			if err == nil {
				t.Fatal("New accepted the spec")
			}
			want, _, _ := strings.Cut(tc.field, " ")
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %q", err, want)
			}
		})
	}
}

// TestFleetQoS is the acceptance run for the QoS provisioning plane on the
// qos-overload scenario: an overloaded fleet (every phone bursts eight
// tight-FRESHNESS infrastructure queries that serialize on its single UMTS
// data channel) must, with QoS enabled, deliver a strictly lower p99
// first-item latency for the queries it serves than the same seed without
// QoS, keep total delivered items within 10%, and attribute its
// dispositions in Summary.QoS. The scenario grants two back-to-back tokens
// and two live slots per phone, so each burst head provisions live, the
// next query defers briefly and the tail degrades to stale-cache answers;
// its cache TTL outlives the longest stretch a context type goes without a
// live fetch under rotation (five periods), or degraded queries would lose
// their answers and collapse into rejections. TestScenarios/qos-overload
// checks that the QoS-on run is byte-identical across worker counts.
func TestFleetQoS(t *testing.T) {
	on := loadScenario(t, "qos-overload")
	base := on
	base.Name = "qos-overload"
	base.QoS = QoSSpec{}

	off, _, _ := runSpec(t, base, 4)
	onSum, _, _ := runSpec(t, on, 4)

	if off.QoS != nil {
		t.Fatalf("QoS-off run has a QoS report: %+v", off.QoS)
	}
	if onSum.QoS == nil {
		t.Fatal("QoS-on run has no QoS report")
	}
	qr := onSum.QoS

	// Admission must actually exercise every disposition the overload
	// design predicts: bursts over-run the token bucket (defers), queue
	// pressure degrades the tail to cache answers, cold-cache tails are
	// rejected, and deferred queries are eventually released.
	if qr.Admitted == 0 || qr.Deferred == 0 || qr.Released == 0 ||
		qr.Degraded == 0 || qr.Rejected == 0 {
		t.Fatalf("QoS dispositions not all exercised: %+v", qr)
	}

	offP99 := mergedFirstItemP99(off.Snapshot)
	if offP99 <= 0 {
		t.Fatalf("QoS-off merged p99 = %v, want > 0", offP99)
	}
	t.Logf("p99 first-item: on=%.1f ms off=%.1f ms; items on=%d off=%d; qos=%+v",
		qr.P99FirstItemMs, offP99, onSum.ItemsDelivered, off.ItemsDelivered, qr)
	if qr.P99FirstItemMs >= offP99 {
		t.Fatalf("QoS-on p99 first-item latency %.1f ms not below QoS-off %.1f ms",
			qr.P99FirstItemMs, offP99)
	}

	// Graceful shedding: serving the tail from the cache must not cost
	// meaningful coverage. Items delivered stay within 10% of the
	// unprotected run.
	diff := onSum.ItemsDelivered - off.ItemsDelivered
	if diff < 0 {
		diff = -diff
	}
	if off.ItemsDelivered == 0 || diff*10 > off.ItemsDelivered {
		t.Fatalf("items delivered diverge: on=%d off=%d (>10%%)",
			onSum.ItemsDelivered, off.ItemsDelivered)
	}

}
