package timeline

import (
	"strings"
	"testing"
	"time"

	"contory/internal/audit"
	"contory/internal/metrics"
	"contory/internal/vclock"
)

// harness wires a recorder to a fresh simulator and registry.
func harness(cfg Config) (*vclock.Simulator, *metrics.Registry, *Recorder) {
	sim := vclock.NewSimulator()
	reg := metrics.NewRegistry()
	r := New(sim, reg, cfg)
	return sim, reg, r
}

func TestSamplerWindows(t *testing.T) {
	sim, reg, r := harness(Config{Interval: 10 * time.Second})
	// Pre-install activity must land in the baseline, not window 0.
	reg.Counter("core.query.submitted").Add(100)
	r.Install()

	hist := reg.Histogram("core.query.first_item_latency_ms.adhoc", []float64{10, 100, 1000})
	sim.After(1*time.Second, func() {
		reg.Counter("core.query.submitted").Add(5)
		reg.Counter("core.query.items_delivered").Add(20)
		reg.Counter("core.cache.hits").Add(3)
		reg.Counter("core.cache.misses").Add(1)
		reg.Gauge("qos.pending").Set(7)
		reg.Gauge("energy.joules.p00001").Set(2.5)
		hist.Observe(50)
		hist.Observe(60)
	})
	// Window 1: the pending gauge drains and nothing else moves.
	sim.After(11*time.Second, func() { reg.Gauge("qos.pending").Set(0) })
	sim.AdvanceTo(vclock.Epoch.Add(25 * time.Second))
	r.Stop()

	rep := r.Report()
	if rep.WindowsTotal != 2 || len(rep.Windows) != 2 {
		t.Fatalf("got %d windows (%d retained), want 2", rep.WindowsTotal, len(rep.Windows))
	}
	w0 := rep.Windows[0]
	if w0.Start != vclock.Epoch || w0.End != vclock.Epoch.Add(10*time.Second) {
		t.Fatalf("window 0 spans %v..%v", w0.Start, w0.End)
	}
	// The baseline absorbed the pre-install 100: only the +5 shows.
	var submitted *Rate
	for i := range w0.Counters {
		if w0.Counters[i].Name == "core.query.submitted" {
			submitted = &w0.Counters[i]
		}
	}
	if submitted == nil || submitted.Delta != 5 || submitted.PerSec != 0.5 {
		t.Fatalf("submitted rate = %+v, want delta 5 rate 0.5", submitted)
	}
	d := w0.Derived
	if d.QueriesSubmitted != 5 || d.ItemsDelivered != 20 || d.FirstItemCount != 2 {
		t.Fatalf("derived counts = %+v", d)
	}
	if d.CacheLookups != 4 || d.CacheHitRatio != 0.75 {
		t.Fatalf("cache ratio = %v over %d lookups, want 0.75 over 4", d.CacheHitRatio, d.CacheLookups)
	}
	if d.Joules != 2.5 || d.JoulesPerItem != 2.5/20 {
		t.Fatalf("joules = %v per item %v", d.Joules, d.JoulesPerItem)
	}
	if d.QoSPending != 7 {
		t.Fatalf("qos pending = %v, want 7", d.QoSPending)
	}
	if d.P99FirstItemMs <= 10 || d.P99FirstItemMs > 100 {
		t.Fatalf("window p99 = %v, want within (10,100]", d.P99FirstItemMs)
	}
	if len(w0.Quantiles) != 1 || w0.Quantiles[0].Count != 2 {
		t.Fatalf("quantile points = %+v, want one with count 2", w0.Quantiles)
	}

	// Window 1 carries only the gauge's return-to-zero transition.
	w1 := rep.Windows[1]
	if len(w1.Counters) != 0 || len(w1.Quantiles) != 0 {
		t.Fatalf("idle window has activity: %+v", w1)
	}
	found := false
	for _, g := range w1.Gauges {
		if g.Name == "qos.pending" && g.Value == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("gauge zero-transition missing from window 1: %+v", w1.Gauges)
	}
}

func TestSamplerStopsAfterStop(t *testing.T) {
	sim, _, r := harness(Config{Interval: time.Second})
	r.Install()
	sim.AdvanceTo(vclock.Epoch.Add(3 * time.Second))
	r.Stop()
	sim.AdvanceTo(vclock.Epoch.Add(10 * time.Second))
	if rep := r.Report(); rep.WindowsTotal != 3 {
		t.Fatalf("got %d windows after stop, want 3", rep.WindowsTotal)
	}
}

func TestWindowRingBounds(t *testing.T) {
	sim, _, r := harness(Config{Interval: time.Second})
	r.Install()
	sim.AdvanceTo(vclock.Epoch.Add((maxWindows + 6) * time.Second))
	r.Stop()
	rep := r.Report()
	if rep.WindowsTotal != maxWindows+6 || rep.WindowsDropped != 6 || len(rep.Windows) != maxWindows {
		t.Fatalf("ring accounting total %d dropped %d retained %d, want %d/6/%d",
			rep.WindowsTotal, rep.WindowsDropped, len(rep.Windows), maxWindows+6, maxWindows)
	}
	for i, w := range rep.Windows {
		if w.Index != 6+i {
			t.Fatalf("retained window %d has index %d, want %d (newest, oldest first)", i, w.Index, 6+i)
		}
	}
}

func TestBurnRateFireExtendClear(t *testing.T) {
	sim, reg, r := harness(Config{
		Interval: 10 * time.Second,
		SLOs:     []SLO{{Name: "shed", Metric: MetricShedRate, Op: "<", Threshold: 0.5}},
	})
	r.Install()
	step := func(shedding bool) {
		reg.Counter("core.query.submitted").Add(10)
		if shedding {
			reg.Counter("qos.shed").Add(10)
		}
	}
	// Windows: ok, ok, bad (burn 1/3: below the gate), bad (burn 2/4:
	// fire), bad (extend), ok (clear), no-data.
	plan := []string{"ok", "ok", "bad", "bad", "bad", "ok", "idle"}
	for i, p := range plan {
		p := p
		sim.After(time.Duration(i)*10*time.Second+time.Second, func() {
			if p != "idle" {
				step(p == "bad")
			}
		})
	}
	sim.AdvanceTo(vclock.Epoch.Add(75 * time.Second))
	r.Stop()

	rep := r.Report()
	if len(rep.Alerts) != 1 {
		t.Fatalf("got %d alerts, want exactly 1 (episode must not re-fire): %+v", len(rep.Alerts), rep.Alerts)
	}
	a := rep.Alerts[0]
	if a.Window != 3 {
		t.Fatalf("alert fired at window %d, want 3 (first window whose lookback burn reaches %v)", a.Window, burnRate)
	}
	if a.Value != 1 || a.BurnRate != 0.5 {
		t.Fatalf("alert value %v burn %v, want 1 and 0.5", a.Value, a.BurnRate)
	}
	// The episode extended through window 4.
	if want := vclock.Epoch.Add(50 * time.Second); !a.WindowEnd.Equal(want) {
		t.Fatalf("episode end %v, want %v", a.WindowEnd, want)
	}
	// SLO table: windows 0..5 evaluated (6 had no submissions), 3 violating.
	if len(rep.SLOs) != 1 {
		t.Fatalf("got %d slo summaries", len(rep.SLOs))
	}
	s := rep.SLOs[0]
	if s.Evaluated != 6 || s.Violating != 3 || s.Alerts != 1 {
		t.Fatalf("slo summary = %+v, want 6 evaluated, 3 violating, 1 alert", s)
	}
	if s.WorstWindow != 2 || s.WorstValue != 1 {
		t.Fatalf("worst window %d value %v, want first worst window 2 at value 1", s.WorstWindow, s.WorstValue)
	}
	// The alert and the clear at window 5's end landed in the event ring.
	var fired, cleared bool
	for _, ev := range reg.Events().Events() {
		switch ev.Kind {
		case metrics.EventSLOAlert:
			fired = true
		case metrics.EventSLOClear:
			cleared = ev.At.Equal(vclock.Epoch.Add(60 * time.Second))
		}
	}
	if !fired || !cleared {
		t.Fatalf("event ring missing alert/clear records (fired=%v cleared at 60s=%v)", fired, cleared)
	}
}

func TestAlertFaultAttribution(t *testing.T) {
	sim, reg, r := harness(Config{
		Interval: 10 * time.Second,
		SLOs:     []SLO{{Metric: MetricShedRate, Op: "<", Threshold: 0.5}},
	})
	r.Install()
	r.SetFaults([]FaultSpan{
		{ID: "f-01", Kind: "partition", Target: "p00002",
			From: vclock.Epoch.Add(5 * time.Second), Until: vclock.Epoch.Add(15 * time.Second)},
		{ID: "f-99", Kind: "crash", Target: "p00009",
			From: vclock.Epoch.Add(300 * time.Second), Until: vclock.Epoch.Add(310 * time.Second)},
	})
	sim.After(time.Second, func() {
		reg.Counter("core.query.submitted").Add(4)
		reg.Counter("qos.shed").Add(4)
	})
	sim.AdvanceTo(vclock.Epoch.Add(12 * time.Second))
	r.Stop()

	rep := r.Report()
	if len(rep.Alerts) != 1 {
		t.Fatalf("got %d alerts, want 1", len(rep.Alerts))
	}
	causes := rep.Alerts[0].Causes
	if len(causes) != 1 || causes[0] != "fault f-01 partition p00002" {
		t.Fatalf("causes = %v, want exactly the overlapping partition fault", causes)
	}
}

func TestAttributeAudit(t *testing.T) {
	sim, reg, r := harness(Config{
		Interval: 10 * time.Second,
		SLOs:     []SLO{{Metric: MetricShedRate, Op: "<", Threshold: 0.5}},
	})
	r.Install()
	sim.After(time.Second, func() {
		reg.Counter("core.query.submitted").Add(2)
		reg.Counter("qos.shed").Add(2)
	})
	sim.AdvanceTo(vclock.Epoch.Add(12 * time.Second))
	r.Stop()

	r.AttributeAudit([]audit.Violation{
		{At: vclock.Epoch.Add(3 * time.Second), Law: "slot-conservation"},
		{At: vclock.Epoch.Add(7 * time.Second), Law: "slot-conservation"},
		{At: vclock.Epoch.Add(99 * time.Second), Law: "gauge-drift"}, // outside the episode
	})
	rep := r.Report()
	if len(rep.Alerts) != 1 {
		t.Fatalf("got %d alerts, want 1", len(rep.Alerts))
	}
	causes := strings.Join(rep.Alerts[0].Causes, "; ")
	if !strings.Contains(causes, "audit:slot-conservation x2") {
		t.Fatalf("causes %q missing the in-window audit attribution", causes)
	}
	if strings.Contains(causes, "gauge-drift") {
		t.Fatalf("causes %q include an out-of-window violation", causes)
	}
}

func TestParseSLO(t *testing.T) {
	cases := []struct {
		spec    string
		want    SLO
		wantErr bool
	}{
		{spec: "p99_first_item_ms<5000",
			want: SLO{Name: "p99_first_item_ms<5000", Metric: MetricP99FirstItemMs, Op: "<", Threshold: 5000}},
		{spec: "cache_hit_ratio>0.25",
			want: SLO{Name: "cache_hit_ratio>0.25", Metric: MetricCacheHitRatio, Op: ">", Threshold: 0.25}},
		{spec: "latency = p99_first_item_ms < 250",
			want: SLO{Name: "latency", Metric: MetricP99FirstItemMs, Op: "<", Threshold: 250}},
		{spec: "counter:qos.shed<1",
			want: SLO{Name: "counter:qos.shed<1", Metric: "counter:qos.shed", Op: "<", Threshold: 1}},
		{spec: "gauge:qos.pending<32",
			want: SLO{Name: "gauge:qos.pending<32", Metric: "gauge:qos.pending", Op: "<", Threshold: 32}},
		{spec: "p99_first_item_ms=5000", wantErr: true}, // no op
		{spec: "<5000", wantErr: true},                  // no metric
		{spec: "p99_first_item_ms<abc", wantErr: true},  // bad threshold
		{spec: "bogus_metric<1", wantErr: true},         // unknown metric
		{spec: "counter:<1", wantErr: true},             // empty counter name
		{spec: "joules_per_item<", wantErr: true},       // empty threshold
	}
	for _, tc := range cases {
		got, err := ParseSLO(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseSLO(%q) = %+v, want error", tc.spec, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSLO(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseSLO(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}

	list, err := ParseSLOList("p99_first_item_ms<5000, cache_hit_ratio>0.5")
	if err != nil || len(list) != 2 {
		t.Fatalf("ParseSLOList = %v, %v; want 2 objectives", list, err)
	}
	if empty, err := ParseSLOList("  "); err != nil || empty != nil {
		t.Fatalf("ParseSLOList(blank) = %v, %v; want nil, nil", empty, err)
	}
	if _, err := ParseSLOList("p99_first_item_ms<5000,junk"); err == nil {
		t.Fatalf("ParseSLOList with a bad entry did not error")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config must validate (defaults apply): %v", err)
	}
	if err := (Config{Interval: -time.Second}).Validate(); err == nil {
		t.Fatalf("negative interval passed validation")
	}
	bad := Config{SLOs: []SLO{{Metric: "bogus", Op: "<", Threshold: 1}}}
	if err := bad.Validate(); err == nil {
		t.Fatalf("bogus slo metric passed validation")
	}
}

func TestChromeExtrasAndRender(t *testing.T) {
	sim, reg, r := harness(Config{
		Interval: 10 * time.Second,
		SLOs:     []SLO{{Metric: MetricShedRate, Op: "<", Threshold: 0.5}},
	})
	r.Install()
	sim.After(time.Second, func() {
		reg.Counter("core.query.submitted").Add(4)
		reg.Counter("qos.shed").Add(4)
	})
	sim.AdvanceTo(vclock.Epoch.Add(22 * time.Second))
	r.Stop()
	rep := r.Report()

	ex := ChromeExtras(rep)
	tracks := make(map[string]int)
	for _, c := range ex.Counters {
		tracks[c.Track]++
	}
	// Two windows: active series sample both, all-zero series are skipped.
	if tracks["queries_per_sec"] != 2 || tracks["qos_shed_rate"] != 2 {
		t.Fatalf("active tracks missing samples: %v", tracks)
	}
	if _, ok := tracks["cache_hit_ratio"]; ok {
		t.Fatalf("all-zero cache track exported: %v", tracks)
	}
	if len(ex.Instants) != 1 || !strings.HasPrefix(ex.Instants[0].Name, "ALERT ") {
		t.Fatalf("instants = %+v, want one ALERT marker", ex.Instants)
	}

	text := RenderText(rep)
	for _, want := range []string{"timeline: 2 windows x 10s", "slo objectives", "alerts", "qos_shed_rate<0.5"} {
		if !strings.Contains(text, want) {
			t.Fatalf("RenderText output missing %q:\n%s", want, text)
		}
	}
}
