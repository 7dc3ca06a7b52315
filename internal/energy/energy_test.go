package energy

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"contory/internal/vclock"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestBaselineDecomposition(t *testing.T) {
	// The marginal constants must re-compose into the paper's totals.
	tests := []struct {
		name  string
		parts []Milliwatts
		want  float64
	}{
		{"display off, backlight off", []Milliwatts{BaseIdle}, 5.75},
		{"display on", []Milliwatts{BaseIdle, DisplayOn}, 14.35},
		{"display+backlight on", []Milliwatts{BaseIdle, DisplayOn, BacklightOn}, 76.20},
		{"bt scan", []Milliwatts{BaseIdle, BTScan}, 8.47},
		{"bt scan + contory", []Milliwatts{BaseIdle, BTScan, ContoryOn}, 10.11},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var sum Milliwatts
			for _, p := range tt.parts {
				sum += p
			}
			if !almostEqual(float64(sum), tt.want, 1e-9) {
				t.Fatalf("sum = %v mW, want %v mW", sum, tt.want)
			}
		})
	}
}

func TestTimelineStatePower(t *testing.T) {
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	tl.SetState("base", BaseIdle)
	if got := tl.Power(); !almostEqual(float64(got), 5.75, 1e-9) {
		t.Fatalf("Power() = %v, want 5.75", got)
	}
	clk.Advance(time.Second)
	tl.SetState("display", DisplayOn)
	if got := tl.Power(); !almostEqual(float64(got), 14.35, 1e-9) {
		t.Fatalf("Power() = %v, want 14.35", got)
	}
	// Power before the display change is unaffected.
	if got := tl.PowerAt(vclock.Epoch); !almostEqual(float64(got), 5.75, 1e-9) {
		t.Fatalf("PowerAt(epoch) = %v, want 5.75", got)
	}
}

func TestTimelineStateOffAndRead(t *testing.T) {
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	tl.SetState("wifi", 1190)
	if got := tl.State("wifi"); got != 1190 {
		t.Fatalf("State = %v, want 1190", got)
	}
	clk.Advance(time.Second)
	tl.SetState("wifi", 0)
	if got := tl.Power(); got != 0 {
		t.Fatalf("Power after off = %v, want 0", got)
	}
	if got := tl.State("unset"); got != 0 {
		t.Fatalf("State(unset) = %v, want 0", got)
	}
}

func TestTimelineSameInstantStateCollapse(t *testing.T) {
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	tl.SetState("s", 100)
	tl.SetState("s", 200) // same instant: only the last value holds
	if got := tl.Power(); got != 200 {
		t.Fatalf("Power = %v, want 200", got)
	}
	clk.Advance(time.Second)
	e := tl.EnergyBetween(vclock.Epoch, vclock.Epoch.Add(time.Second))
	if !almostEqual(float64(e), 0.2, 1e-9) {
		t.Fatalf("energy = %v J, want 0.2 J", e)
	}
}

func TestWindowEnergyIntegration(t *testing.T) {
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	// WiFi-connected identity from the paper: 1190 mW for 0.761 s ≈ 0.906 J.
	tl.AddWindow("wifi-get", 1190, 761*time.Millisecond)
	clk.Advance(2 * time.Second)
	e := tl.EnergyBetween(vclock.Epoch, clk.Now())
	if !almostEqual(float64(e), 1.190*0.761, 1e-6) {
		t.Fatalf("energy = %v J, want %v J", e, 1.190*0.761)
	}
	if we := tl.WindowEnergy("wifi-get"); !almostEqual(float64(we), 1.190*0.761, 1e-6) {
		t.Fatalf("WindowEnergy = %v J", we)
	}
}

func TestWindowOverlapsState(t *testing.T) {
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	tl.SetState("base", 10) // 10 mW forever
	clk.Advance(time.Second)
	tl.AddWindow("burst", 90, time.Second) // 90 mW for 1 s
	clk.Advance(3 * time.Second)
	// Total over 4 s: 10 mW * 4 s + 90 mW * 1 s = 0.04 + 0.09 = 0.13 J.
	e := tl.EnergyBetween(vclock.Epoch, clk.Now())
	if !almostEqual(float64(e), 0.13, 1e-9) {
		t.Fatalf("energy = %v J, want 0.13 J", e)
	}
	// Mid-window power is the sum.
	mid := vclock.Epoch.Add(1500 * time.Millisecond)
	if got := tl.PowerAt(mid); got != 100 {
		t.Fatalf("PowerAt(mid) = %v, want 100", got)
	}
}

func TestAddWindowAtFutureStart(t *testing.T) {
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	start := vclock.Epoch.Add(5 * time.Second)
	tl.AddWindowAt("tx", 1000, start, time.Second)
	if got := tl.PowerAt(vclock.Epoch.Add(2 * time.Second)); got != 0 {
		t.Fatalf("power before window = %v", got)
	}
	if got := tl.PowerAt(start.Add(500 * time.Millisecond)); got != 1000 {
		t.Fatalf("power inside window = %v", got)
	}
	e := tl.EnergyBetween(vclock.Epoch, start.Add(2*time.Second))
	if !almostEqual(float64(e), 1.0, 1e-9) {
		t.Fatalf("energy = %v J, want 1 J", e)
	}
}

func TestZeroDurationWindowIgnored(t *testing.T) {
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	tl.AddWindow("noop", 500, 0)
	tl.AddWindow("noop", 500, -time.Second)
	clk.Advance(time.Second)
	if e := tl.EnergyBetween(vclock.Epoch, clk.Now()); e != 0 {
		t.Fatalf("energy = %v, want 0", e)
	}
}

func TestEnergyBetweenEmptyOrInverted(t *testing.T) {
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	tl.SetState("s", 100)
	if e := tl.EnergyBetween(clk.Now(), clk.Now()); e != 0 {
		t.Fatalf("zero-width integral = %v", e)
	}
	if e := tl.EnergyBetween(clk.Now().Add(time.Hour), clk.Now()); e != 0 {
		t.Fatalf("inverted integral = %v", e)
	}
}

// Property: energy integration is additive over adjacent intervals.
func TestEnergyAdditivityProperty(t *testing.T) {
	prop := func(p1, p2 uint16, d1, d2 uint16) bool {
		clk := vclock.NewSimulator()
		tl := NewTimeline(clk)
		tl.SetState("a", Milliwatts(p1%2000))
		da := time.Duration(d1%5000+1) * time.Millisecond
		db := time.Duration(d2%5000+1) * time.Millisecond
		clk.Advance(da)
		tl.SetState("a", Milliwatts(p2%2000))
		clk.Advance(db)
		t0 := vclock.Epoch
		tm := t0.Add(da)
		t1 := tm.Add(db)
		whole := float64(tl.EnergyBetween(t0, t1))
		split := float64(tl.EnergyBetween(t0, tm)) + float64(tl.EnergyBetween(tm, t1))
		return almostEqual(whole, split, 1e-6)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMeterSampling(t *testing.T) {
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	tl.SetState("base", 100)
	m, err := NewMeter(clk, tl, DefaultMeterInterval)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	clk.Advance(2 * time.Second)
	m.Stop()
	clk.Advance(5 * time.Second)
	samples := m.Samples()
	// t=0 (immediate), 0.5, 1.0, 1.5, 2.0 => 5 samples.
	if len(samples) != 5 {
		t.Fatalf("got %d samples, want 5: %+v", len(samples), samples)
	}
	for i, s := range samples {
		if s.Power != 100 {
			t.Errorf("sample %d power = %v", i, s.Power)
		}
		if want := time.Duration(i) * 500 * time.Millisecond; s.Since != want {
			t.Errorf("sample %d since = %v, want %v", i, s.Since, want)
		}
	}
	if m.MaxPower() != 100 || m.MeanPower() != 100 {
		t.Fatalf("max/mean = %v/%v", m.MaxPower(), m.MeanPower())
	}
}

func TestMeterRejectsBadInterval(t *testing.T) {
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	if _, err := NewMeter(clk, tl, 0); err == nil {
		t.Fatal("NewMeter(0) succeeded, want error")
	}
}

func TestMeterDoubleStartIsIdempotent(t *testing.T) {
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	m, err := NewMeter(clk, tl, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	m.Start()
	clk.Advance(3 * time.Second)
	m.Stop()
	if n := len(m.Samples()); n != 4 { // t=0,1,2,3
		t.Fatalf("samples = %d, want 4", n)
	}
}

func TestBatteryVoltageSag(t *testing.T) {
	clk := vclock.NewSimulator()
	b := NewBattery(clk, BatteryConfig{})
	if v := b.Voltage(); !almostEqual(v, BatteryVoltage, 1e-9) {
		t.Fatalf("fresh voltage = %v", v)
	}
	b.Drain(12900) // fully drain
	v := b.Voltage()
	if want := BatteryVoltage * 0.98; !almostEqual(v, want, 1e-9) {
		t.Fatalf("drained voltage = %v, want %v (2%% sag cap)", v, want)
	}
	if r := b.Remaining(); !almostEqual(r, 0, 1e-9) {
		t.Fatalf("remaining = %v", r)
	}
}

func TestBatteryInRushTrip(t *testing.T) {
	clk := vclock.NewSimulator()
	b := NewBattery(clk, BatteryConfig{
		ShuntOhms:           MeterShuntOhms,
		TripPowerMilliwatts: 1190, // WiFi connect in-rush
	})
	if b.ObservePower(500) {
		t.Fatal("tripped below threshold")
	}
	clk.Advance(30 * time.Second)
	if !b.ObservePower(1190) {
		t.Fatal("did not trip at threshold")
	}
	tripped, at, cause := b.Tripped()
	if !tripped || cause == "" {
		t.Fatalf("Tripped() = %v %q", tripped, cause)
	}
	if want := vclock.Epoch.Add(30 * time.Second); !at.Equal(want) {
		t.Fatalf("tripped at %v, want %v", at, want)
	}
	// Already tripped: further observations report false.
	if b.ObservePower(2000) {
		t.Fatal("re-tripped")
	}
	b.Reset()
	if tripped, _, _ := b.Tripped(); tripped {
		t.Fatal("Reset did not clear trip")
	}
}

func TestBatteryNoMeterNoTrip(t *testing.T) {
	clk := vclock.NewSimulator()
	b := NewBattery(clk, BatteryConfig{TripPowerMilliwatts: 1000}) // no shunt
	if b.ObservePower(5000) {
		t.Fatal("tripped without meter in circuit")
	}
}

func TestBatteryDrainClamps(t *testing.T) {
	clk := vclock.NewSimulator()
	b := NewBattery(clk, BatteryConfig{CapacityJoules: 10})
	b.Drain(-5) // ignored
	if r := b.Remaining(); r != 1 {
		t.Fatalf("remaining after negative drain = %v", r)
	}
	b.Drain(1000)
	if r := b.Remaining(); r != 0 {
		t.Fatalf("remaining after over-drain = %v", r)
	}
}

func TestMeterObserverFeedsBatteryTrip(t *testing.T) {
	// The paper's WiFi anecdote: with the multimeter in circuit, the
	// in-rush current of a WiFi connection dropped the supply voltage and
	// the phone's protection circuit switched it off.
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	b := NewBattery(clk, BatteryConfig{
		ShuntOhms:           MeterShuntOhms,
		TripPowerMilliwatts: 1190,
	})
	m, err := NewMeter(clk, tl, DefaultMeterInterval)
	if err != nil {
		t.Fatal(err)
	}
	m.OnSample(func(s Sample) { b.ObservePower(s.Power) })
	m.Start()
	clk.Advance(5 * time.Second)
	if tripped, _, _ := b.Tripped(); tripped {
		t.Fatal("tripped at idle")
	}
	tl.SetState("wifi", 1190) // WiFi connects at full signal
	clk.Advance(2 * time.Second)
	tripped, at, cause := b.Tripped()
	if !tripped {
		t.Fatal("phone did not switch off on WiFi in-rush through the meter")
	}
	if at.Before(vclock.Epoch.Add(5 * time.Second)) {
		t.Fatalf("tripped at %v", at)
	}
	if cause == "" {
		t.Fatal("missing trip cause")
	}
	m.Stop()
}

func TestCompactBoundsMemoryAndPreservesEnergy(t *testing.T) {
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	tl.SetState("base", 10)
	// An hour of 1 Hz windows.
	for i := 0; i < 3600; i++ {
		tl.AddWindow("sample", 300, 500*time.Millisecond)
		clk.Advance(time.Second)
	}
	totalBefore := float64(tl.EnergyBetween(vclock.Epoch, clk.Now()))
	if tl.WindowCount() != 3600 {
		t.Fatalf("windows = %d", tl.WindowCount())
	}
	cutoff := vclock.Epoch.Add(59 * time.Minute)
	tl.Compact(cutoff)
	if !tl.CompactedAt().Equal(cutoff) {
		t.Fatalf("CompactedAt = %v", tl.CompactedAt())
	}
	if tl.WindowCount() > 70 {
		t.Fatalf("windows after compact = %d, want ≈ 60", tl.WindowCount())
	}
	// Folded energy + remaining integral = original total.
	totalAfter := float64(tl.FoldedEnergy()) + float64(tl.EnergyBetween(cutoff, clk.Now()))
	if !almostEqual(totalAfter, totalBefore, 1e-6) {
		t.Fatalf("energy leaked by Compact: %v vs %v", totalAfter, totalBefore)
	}
	// Post-cutoff power still correct (state survives compaction).
	if p := tl.Power(); p != 10 {
		t.Fatalf("power after compact = %v", p)
	}
	// Earlier or equal cutoff: no-op.
	tl.Compact(cutoff)
	tl.Compact(cutoff.Add(-time.Minute))
	if !tl.CompactedAt().Equal(cutoff) {
		t.Fatal("compaction cutoff moved backwards")
	}
}

func TestCompactTrimsStraddlingWindow(t *testing.T) {
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	tl.AddWindow("long", 1000, 10*time.Second) // 10 J total
	clk.Advance(20 * time.Second)
	cutoff := vclock.Epoch.Add(5 * time.Second)
	tl.Compact(cutoff)
	// 5 J folded, 5 J still queryable.
	if got := float64(tl.FoldedEnergy()); !almostEqual(got, 5, 1e-9) {
		t.Fatalf("folded = %v J", got)
	}
	rest := float64(tl.EnergyBetween(cutoff, clk.Now()))
	if !almostEqual(rest, 5, 1e-9) {
		t.Fatalf("remaining = %v J", rest)
	}
	// WindowEnergy counts the whole window whether it was trimmed or, once
	// the cutoff passes its end, dropped.
	if got := float64(tl.WindowEnergy("long")); !almostEqual(got, 10, 1e-9) {
		t.Fatalf("WindowEnergy after trim = %v J, want 10 J", got)
	}
	tl.Compact(vclock.Epoch.Add(15 * time.Second))
	if n := tl.WindowCount(); n != 0 {
		t.Fatalf("windows after dropping compaction = %d, want 0", n)
	}
	if got := float64(tl.WindowEnergy("long")); !almostEqual(got, 10, 1e-9) {
		t.Fatalf("WindowEnergy after drop = %v J, want 10 J", got)
	}
	if got := tl.WindowEnergy("never-added"); got != 0 {
		t.Fatalf("WindowEnergy(unknown label) = %v J", got)
	}
}
