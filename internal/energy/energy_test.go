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

// open returns an interval opened on tl now.
func open(tl *Timeline) *Interval {
	iv := new(Interval)
	tl.Open(iv)
	return iv
}

func TestTimelineStatePower(t *testing.T) {
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	iv := open(tl)
	tl.SetState("base", BaseIdle)
	if got := tl.Power(); !almostEqual(float64(got), 5.75, 1e-9) {
		t.Fatalf("Power() = %v, want 5.75", got)
	}
	clk.Advance(time.Second)
	tl.SetState("display", DisplayOn)
	if got := tl.Power(); !almostEqual(float64(got), 14.35, 1e-9) {
		t.Fatalf("Power() = %v, want 14.35", got)
	}
	// The second before the display change drew the base state only.
	if got := iv.Close(); !almostEqual(float64(got), 5.75e-3, 1e-12) {
		t.Fatalf("energy of the first second = %v J, want 5.75e-3", got)
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
	if got := tl.Joules(); !almostEqual(float64(got), 1.19, 1e-9) {
		t.Fatalf("Joules since the timeline was made = %v, want 1.19", got)
	}
}

func TestTimelineSameInstantStateCollapse(t *testing.T) {
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	iv := open(tl)
	tl.SetState("s", 100)
	tl.SetState("s", 200) // same instant: only the last value holds
	if got := tl.Power(); got != 200 {
		t.Fatalf("Power = %v, want 200", got)
	}
	clk.Advance(time.Second)
	if e := iv.Joules(); !almostEqual(float64(e), 0.2, 1e-9) {
		t.Fatalf("energy = %v J, want 0.2 J", e)
	}
}

func TestWindowEnergyIntegration(t *testing.T) {
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	iv := open(tl)
	// WiFi-connected identity from the paper: 1190 mW for 0.761 s ≈ 0.906 J.
	tl.AddWindow("wifi-get", 1190, 761*time.Millisecond)
	clk.Advance(2 * time.Second)
	if e := iv.Joules(); !almostEqual(float64(e), 1.190*0.761, 1e-6) {
		t.Fatalf("energy = %v J, want %v J", e, 1.190*0.761)
	}
	if we := tl.WindowEnergy("wifi-get"); !almostEqual(float64(we), 1.190*0.761, 1e-6) {
		t.Fatalf("WindowEnergy = %v J", we)
	}
}

func TestWindowOverlapsState(t *testing.T) {
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	iv := open(tl)
	tl.SetState("base", 10) // 10 mW forever
	clk.Advance(time.Second)
	tl.AddWindow("burst", 90, time.Second) // 90 mW for 1 s
	clk.Advance(500 * time.Millisecond)
	// Mid-window power is the sum.
	if got := tl.Power(); got != 100 {
		t.Fatalf("Power mid-window = %v, want 100", got)
	}
	clk.Advance(2500 * time.Millisecond)
	// Total over 4 s: 10 mW * 4 s + 90 mW * 1 s = 0.04 + 0.09 = 0.13 J.
	if e := iv.Joules(); !almostEqual(float64(e), 0.13, 1e-9) {
		t.Fatalf("energy = %v J, want 0.13 J", e)
	}
}

func TestAddWindowAtFutureStart(t *testing.T) {
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	iv := open(tl)
	start := vclock.Epoch.Add(5 * time.Second)
	tl.AddWindowAt("tx", 1000, start, time.Second)
	clk.Advance(2 * time.Second)
	if got := tl.Power(); got != 0 {
		t.Fatalf("power before window = %v", got)
	}
	clk.AdvanceTo(start.Add(500 * time.Millisecond))
	if got := tl.Power(); got != 1000 {
		t.Fatalf("power inside window = %v", got)
	}
	clk.AdvanceTo(start.Add(2 * time.Second))
	if e := iv.Joules(); !almostEqual(float64(e), 1.0, 1e-9) {
		t.Fatalf("energy = %v J, want 1 J", e)
	}
}

// A window that starts before now would need the history the timeline no
// longer keeps: every caller passes now plus a non-negative offset, so
// one that does not is a bug.
func TestWindowInPastPanics(t *testing.T) {
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	clk.Advance(time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("a window starting before now did not panic")
		}
	}()
	tl.AddWindowAt("late", 100, vclock.Epoch, 2*time.Second)
}

func TestZeroDurationWindowIgnored(t *testing.T) {
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	iv := open(tl)
	tl.AddWindow("noop", 500, 0)
	tl.AddWindow("noop", 500, -time.Second)
	clk.Advance(time.Second)
	if e := iv.Joules(); e != 0 {
		t.Fatalf("energy = %v, want 0", e)
	}
}

// An interval read or closed at the instant it opened holds +0, whatever
// is drawn; the zero Interval reads 0; a closed one keeps its value.
func TestIntervalAtOpenIsZero(t *testing.T) {
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	tl.SetState("s", 100)
	clk.Advance(time.Second)
	iv := open(tl)
	tl.AddWindow("w", 50, time.Second)
	if e := iv.Joules(); e != 0 || math.Signbit(float64(e)) {
		t.Fatalf("zero-width reading = %v", e)
	}
	if e := iv.Close(); e != 0 || math.Signbit(float64(e)) {
		t.Fatalf("zero-width close = %v", e)
	}
	clk.Advance(time.Second)
	if e := iv.Joules(); e != 0 {
		t.Fatalf("closed interval read %v after the clock moved", e)
	}
	var never Interval
	if e := never.Joules(); e != 0 || never.Close() != 0 || never.Timeline() != nil {
		t.Fatalf("zero Interval reads %v", e)
	}
}

// Property: energy integration is additive over adjacent intervals: the
// battery accounting closes one interval and reopens it at the same
// instant every period.
func TestEnergyAdditivityProperty(t *testing.T) {
	prop := func(p1, p2 uint16, d1, d2 uint16) bool {
		clk := vclock.NewSimulator()
		tl := NewTimeline(clk)
		whole, first := open(tl), open(tl)
		tl.SetState("a", Milliwatts(p1%2000))
		da := time.Duration(d1%5000+1) * time.Millisecond
		db := time.Duration(d2%5000+1) * time.Millisecond
		clk.Advance(da)
		split := float64(first.Close())
		tl.Open(first)
		tl.SetState("a", Milliwatts(p2%2000))
		clk.Advance(db)
		split += float64(first.Close())
		return almostEqual(float64(whole.Close()), split, 1e-6)
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

// TestTimelineKeepsNoHistory: an hour of 1 Hz windows leaves nothing but
// the next window's edges pending, and the interval open over the hour
// reads what integrating the hour's whole history gives.
func TestTimelineKeepsNoHistory(t *testing.T) {
	clk := vclock.NewSimulator()
	tl, ref := NewTimeline(clk), newRefTimeline()
	iv := open(tl)
	tl.SetState("base", 10)
	ref.setState(clk.Now(), "base", 10)
	for i := 0; i < 3600; i++ {
		tl.AddWindow("sample", 300, 500*time.Millisecond)
		ref.addWindowAt("sample", 300, clk.Now(), 500*time.Millisecond)
		if n := len(tl.pending); n > 2 {
			t.Fatalf("second %d: %d edges pending, want at most 2", i, n)
		}
		clk.Advance(time.Second)
	}
	if got, want := iv.Joules(), ref.energyBetween(vclock.Epoch, clk.Now()); got != want {
		t.Fatalf("hour = %v J, oracle %v J", got, want)
	}
	if p := tl.Power(); p != 10 {
		t.Fatalf("power after the hour = %v", p)
	}
}

// TestWindowEnergyCountsWholeWindow: a window's energy counts in full from
// the moment it is added, while an interval holds only the part drawn
// inside it.
func TestWindowEnergyCountsWholeWindow(t *testing.T) {
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	iv := open(tl)
	tl.AddWindow("long", 1000, 10*time.Second) // 10 J total
	if got := float64(tl.WindowEnergy("long")); !almostEqual(got, 10, 1e-9) {
		t.Fatalf("WindowEnergy as added = %v J, want 10 J", got)
	}
	clk.Advance(5 * time.Second)
	if got := float64(iv.Close()); !almostEqual(got, 5, 1e-9) {
		t.Fatalf("first half = %v J, want 5 J", got)
	}
	clk.Advance(15 * time.Second)
	if got := float64(tl.WindowEnergy("long")); !almostEqual(got, 10, 1e-9) {
		t.Fatalf("WindowEnergy after the window = %v J, want 10 J", got)
	}
	if got := tl.WindowEnergy("never-added"); got != 0 {
		t.Fatalf("WindowEnergy(unknown label) = %v J", got)
	}
}
