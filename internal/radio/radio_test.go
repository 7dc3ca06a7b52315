package radio

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"contory/internal/energy"
	"contory/internal/vclock"
)

func withinPct(got, want, pct float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want)/math.Abs(want) <= pct/100
}

func meanLatency(n int, sample func() time.Duration) time.Duration {
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += sample()
	}
	return sum / time.Duration(n)
}

func TestMediumString(t *testing.T) {
	tests := []struct {
		m    Medium
		want string
	}{
		{MediumInternal, "internal"},
		{MediumBT, "bt"},
		{MediumWiFi, "wifi"},
		{MediumUMTS, "umts"},
		{Medium(99), "medium(99)"},
	}
	for _, tt := range tests {
		if got := tt.m.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.m), got, tt.want)
		}
	}
}

func TestParseMedium(t *testing.T) {
	for _, s := range []string{"internal", "bt", "bluetooth", "wifi", "wlan", "umts", "2g/3g", "gprs"} {
		if _, err := ParseMedium(s); err != nil {
			t.Errorf("ParseMedium(%q): %v", s, err)
		}
	}
	if _, err := ParseMedium("zigbee"); err == nil {
		t.Error("ParseMedium(zigbee) succeeded")
	}
	m, err := ParseMedium("bluetooth")
	if err != nil || m != MediumBT {
		t.Errorf("ParseMedium(bluetooth) = %v, %v", m, err)
	}
}

func TestBTGetLatencyMatchesTable1(t *testing.T) {
	bt := NewBT(1)
	mean := meanLatency(500, func() time.Duration {
		d, _ := bt.Get(ItemBytesMax)
		return d
	})
	if !withinPct(mean.Seconds(), 0.031830, 5) {
		t.Fatalf("BT get mean = %v, want ≈ 31.83 ms", mean)
	}
}

func TestBTPublishLatencyMatchesTable1(t *testing.T) {
	bt := NewBT(2)
	mean := meanLatency(500, func() time.Duration {
		d, _ := bt.Publish(ItemBytesMax)
		return d
	})
	if !withinPct(mean.Seconds(), 0.140359, 5) {
		t.Fatalf("BT publish mean = %v, want ≈ 140.359 ms", mean)
	}
}

func TestBTDiscoveryDurations(t *testing.T) {
	bt := NewBT(3)
	dd, _ := bt.DeviceDiscovery()
	if dd < 11*time.Second || dd > 15*time.Second {
		t.Fatalf("device discovery = %v, want ≈ 13 s", dd)
	}
	sd, _ := bt.ServiceDiscovery()
	if sd < 900*time.Millisecond || sd > 1400*time.Millisecond {
		t.Fatalf("service discovery = %v, want ≈ 1.12 s", sd)
	}
}

func TestBTEnergyCalibration(t *testing.T) {
	bt := NewBT(4)
	// Periodic one-hop get without discovery: ≈ 0.099 J (Table 2).
	_, ws := bt.Get(ItemBytesMax)
	if got := float64(TotalEnergy(ws)); !withinPct(got, 0.099, 2) {
		t.Fatalf("BT get energy = %v J, want ≈ 0.099 J", got)
	}
	// Provide side: ≈ 0.133 J.
	_, ws = bt.Provide(ItemBytesMax)
	if got := float64(TotalEnergy(ws)); !withinPct(got, 0.133, 2) {
		t.Fatalf("BT provide energy = %v J, want ≈ 0.133 J", got)
	}
	// GPS periodic sample: ≈ 0.422 J.
	_, ws = bt.GPSSample()
	if got := float64(TotalEnergy(ws)); !withinPct(got, 0.422, 2) {
		t.Fatalf("GPS sample energy = %v J, want ≈ 0.422 J", got)
	}
	// On-demand get including discovery: ≈ 5.27 J.
	var total float64
	_, ws = bt.DeviceDiscovery()
	total += float64(TotalEnergy(ws))
	_, ws = bt.ServiceDiscovery()
	total += float64(TotalEnergy(ws))
	_, ws = bt.Get(ItemBytesMax)
	total += float64(TotalEnergy(ws))
	if !withinPct(total, 5.270, 6) {
		t.Fatalf("BT on-demand get energy = %v J, want ≈ 5.27 J", total)
	}
}

// TestGPSSampleAllocs: a GPS sample's cost allocates nothing: its one
// window is shared, and the latency draw is keyed.
func TestGPSSampleAllocs(t *testing.T) {
	bt := NewBT(4)
	var ws []PowerWindow
	if got := testing.AllocsPerRun(100, func() { _, ws = bt.GPSSample() }); got != 0 {
		t.Fatalf("GPSSample: %v allocations, want 0", got)
	}
	if len(ws) != 1 || ws[0] != (PowerWindow{Label: "bt-gps-sample", MW: BTActivePower, Dur: BTGPSSampleWindow}) {
		t.Fatalf("windows = %+v", ws)
	}
}

func TestBTSegmentation(t *testing.T) {
	tests := []struct {
		bytes int
		want  int
	}{
		{0, 1}, {1, 1}, {136, 1}, {137, 2}, {272, 2}, {340, 3},
	}
	for _, tt := range tests {
		if got := segments(tt.bytes); got != tt.want {
			t.Errorf("segments(%d) = %d, want %d", tt.bytes, got, tt.want)
		}
	}
}

func TestWiFiLatenciesMatchTable1(t *testing.T) {
	w := NewWiFi(5)
	oneHop := meanLatency(500, func() time.Duration { return w.GetLatency(ItemBytesMax, 1) })
	if !withinPct(oneHop.Seconds(), 0.761280, 5) {
		t.Fatalf("WiFi 1-hop mean = %v, want ≈ 761.28 ms", oneHop)
	}
	twoHop := meanLatency(500, func() time.Duration { return w.GetLatency(ItemBytesMax, 2) })
	if !withinPct(twoHop.Seconds(), 1.422500, 5) {
		t.Fatalf("WiFi 2-hop mean = %v, want ≈ 1422.5 ms", twoHop)
	}
	pub := meanLatency(500, func() time.Duration {
		d, _ := w.Publish(ItemBytesMax)
		return d
	})
	if !withinPct(pub.Seconds(), 0.000130, 10) {
		t.Fatalf("WiFi publish mean = %v, want ≈ 0.130 ms", pub)
	}
}

func TestWiFiPublishHasNoRadioWindow(t *testing.T) {
	w := NewWiFi(6)
	_, ws := w.Publish(ItemBytesMax)
	if len(ws) != 0 {
		t.Fatalf("publish produced %d power windows, want 0 (tag write is local)", len(ws))
	}
}

func TestWiFiEnergyBounds(t *testing.T) {
	w := NewWiFi(7)
	// Energy = 1190 mW × latency: 1-hop ≈ 0.906 J, 2-hop ≈ 1.693 J.
	var e1, e2 float64
	const n = 200
	for i := 0; i < n; i++ {
		_, ws := w.Get(ItemBytesMax, 1)
		e1 += float64(TotalEnergy(ws))
		_, ws = w.Get(ItemBytesMax, 2)
		e2 += float64(TotalEnergy(ws))
	}
	e1 /= n
	e2 /= n
	if !withinPct(e1, 0.906, 6) {
		t.Fatalf("WiFi 1-hop energy = %v J, want ≈ 0.906 J", e1)
	}
	if !withinPct(e2, 1.693, 6) {
		t.Fatalf("WiFi 2-hop energy = %v J, want ≈ 1.693 J", e2)
	}
}

func TestWiFiRouteBuildTwiceGet(t *testing.T) {
	w := NewWiFi(8)
	var get, route float64
	const n = 300
	for i := 0; i < n; i++ {
		get += float64(w.GetLatency(ItemBytesMax, 2))
		d, _ := w.RouteBuild(ItemBytesMax, 2)
		route += float64(d)
	}
	if ratio := route / get; !withinPct(ratio, 2.0, 8) {
		t.Fatalf("route-build/get ratio = %v, want ≈ 2", ratio)
	}
}

func TestWiFiBreakdownFractions(t *testing.T) {
	w := NewWiFi(9)
	total := 761280 * time.Microsecond
	b := w.Split(total)
	if got := b.Total(); !withinPct(float64(got), float64(total), 1) {
		t.Fatalf("breakdown total = %v, want %v", got, total)
	}
	frac := func(d time.Duration) float64 { return float64(d) / float64(total) }
	if f := frac(b.Connection); f < 0.04 || f > 0.05 {
		t.Errorf("connection fraction = %v, want 4-5%%", f)
	}
	if f := frac(b.Serialize); f < 0.26 || f > 0.33 {
		t.Errorf("serialization fraction = %v, want 26-33%%", f)
	}
	if f := frac(b.Thread); f < 0.12 || f > 0.14 {
		t.Errorf("thread fraction = %v, want 12-14%%", f)
	}
	if f := frac(b.Transfer); f < 0.51 || f > 0.54 {
		t.Errorf("transfer fraction = %v, want 51-54%%", f)
	}
}

func TestUMTSLatencyDistribution(t *testing.T) {
	u := NewUMTS(10)
	var minD, maxD time.Duration = time.Hour, 0
	var sum time.Duration
	const n = 1000
	for i := 0; i < n; i++ {
		d := u.GetLatency()
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
		sum += d
	}
	mean := sum / n
	if !withinPct(mean.Seconds(), 1.473, 8) {
		t.Fatalf("UMTS get mean = %v, want ≈ 1473 ms", mean)
	}
	if minD < UMTSGetLatencyMin || maxD > UMTSGetLatencyMax {
		t.Fatalf("UMTS latency range [%v, %v] outside paper's 703–2766 ms", minD, maxD)
	}
	// High variability: the clamps must actually be exercised.
	if maxD < 2*time.Second {
		t.Fatalf("UMTS max latency = %v; variability too low", maxD)
	}
}

func TestUMTSPublishLatency(t *testing.T) {
	u := NewUMTS(11)
	mean := meanLatency(1000, u.PublishLatency)
	if !withinPct(mean.Seconds(), 0.772728, 15) {
		t.Fatalf("UMTS publish mean = %v, want ≈ 772.7 ms", mean)
	}
}

func TestUMTSEnergyCalibration(t *testing.T) {
	u := NewUMTS(12)
	var sum float64
	const n = 300
	for i := 0; i < n; i++ {
		_, ws := u.Get()
		sum += float64(TotalEnergy(ws))
	}
	if got := sum / n; !withinPct(got, 14.076, 5) {
		t.Fatalf("UMTS get energy = %v J, want ≈ 14.076 J", got)
	}
}

func TestUMTSBatchingReducesPerItemEnergy(t *testing.T) {
	u := NewUMTS(13)
	perItem := func(k int) float64 {
		var sum float64
		const n = 100
		for i := 0; i < n; i++ {
			_, ws := u.GetBatch(k)
			sum += float64(TotalEnergy(ws)) / float64(k)
		}
		return sum / n
	}
	e1, e5, e20 := perItem(1), perItem(5), perItem(20)
	if !(e1 > e5 && e5 > e20) {
		t.Fatalf("batching did not reduce per-item energy: %v > %v > %v expected", e1, e5, e20)
	}
	if e20 > e1/3 {
		t.Fatalf("20-item batch per-item energy %v J not ≪ single %v J", e20, e1)
	}
}

func TestUMTSIdlePeaks(t *testing.T) {
	u := NewUMTS(14)
	for i := 0; i < 100; i++ {
		mw, dur, next := u.IdlePeak()
		if mw < GSMIdlePeakPowerMin || mw > GSMIdlePeakPowerMax {
			t.Fatalf("idle peak power = %v, want 450–481 mW", mw)
		}
		if dur != GSMIdlePeakWindow {
			t.Fatalf("idle peak duration = %v", dur)
		}
		if next < GSMIdlePeakEveryMin || next > GSMIdlePeakEveryMax {
			t.Fatalf("idle peak interval = %v, want 50–60 s", next)
		}
	}
}

func TestPublishLatencyOrdering(t *testing.T) {
	// Table 1's qualitative story: WiFi tag publish ≪ BT SDDB publish ≪
	// UMTS publish.
	bt, w, u := NewBT(15), NewWiFi(16), NewUMTS(17)
	db, _ := bt.Publish(ItemBytesMax)
	dw, _ := w.Publish(ItemBytesMax)
	du := u.PublishLatency()
	if !(dw < db && db < du) {
		t.Fatalf("publish ordering broken: wifi=%v bt=%v umts=%v", dw, db, du)
	}
}

func TestGetLatencyOrdering(t *testing.T) {
	// BT one-hop ≪ WiFi one-hop < WiFi two-hop ≈< UMTS.
	bt, w, u := NewBT(18), NewWiFi(19), NewUMTS(20)
	db, _ := bt.Get(ItemBytesMax)
	d1 := w.GetLatency(ItemBytesMax, 1)
	d2 := w.GetLatency(ItemBytesMax, 2)
	du := meanLatency(200, u.GetLatency)
	if !(db < d1 && d1 < d2 && d2 < du+time.Second) {
		t.Fatalf("get ordering broken: bt=%v wifi1=%v wifi2=%v umts=%v", db, d1, d2, du)
	}
}

func TestApplyWindows(t *testing.T) {
	clk := vclock.NewSimulator()
	tl := energy.NewTimeline(clk)
	var drawn energy.Interval
	tl.Open(&drawn)
	ws := []PowerWindow{
		{Label: "a", MW: 100, Dur: time.Second},
		{Label: "b", MW: 200, Offset: time.Second, Dur: time.Second},
	}
	ApplyWindows(tl, clk.Now(), ws)
	clk.Advance(3 * time.Second)
	e := float64(drawn.Close())
	if !withinPct(e, 0.3, 1) {
		t.Fatalf("applied energy = %v J, want 0.3 J", e)
	}
}

func TestSamplerDeterminism(t *testing.T) {
	a, b := NewSampler(42), NewSampler(42)
	for i := 0; i < 100; i++ {
		if a.Jittered(time.Second, 100*time.Millisecond) != b.Jittered(time.Second, 100*time.Millisecond) {
			t.Fatal("same-seed samplers diverged")
		}
	}
}

// Property: jittered latencies are never negative and never below 10 % of
// the mean.
func TestJitteredFloorProperty(t *testing.T) {
	s := NewSampler(99)
	prop := func(meanMS, ciMS uint16) bool {
		mean := time.Duration(meanMS%10000+1) * time.Millisecond
		ci := time.Duration(ciMS%5000) * time.Millisecond
		d := s.Jittered(mean, ci)
		return d >= mean/10
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: JitteredClamped always respects its bounds.
func TestJitteredClampedProperty(t *testing.T) {
	s := NewSampler(7)
	prop := func(meanMS, ciMS uint16) bool {
		mean := time.Duration(meanMS%5000+500) * time.Millisecond
		ci := time.Duration(ciMS%2000) * time.Millisecond
		lo, hi := mean/2, mean*2
		d := s.JitteredClamped(mean, ci, lo, hi)
		return d >= lo && d <= hi
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformDur(t *testing.T) {
	s := NewSampler(1)
	lo, hi := 50*time.Second, 60*time.Second
	for i := 0; i < 200; i++ {
		d := s.UniformDur(lo, hi)
		if d < lo || d > hi {
			t.Fatalf("UniformDur out of range: %v", d)
		}
	}
	if d := s.UniformDur(hi, lo); d != hi {
		t.Fatalf("inverted range returned %v, want lo", d)
	}
}

func TestBTScanPowerMatchesEnergyConstant(t *testing.T) {
	bt := NewBT(0)
	if got, want := bt.ScanPower(), energy.BTScan; got != want {
		t.Fatalf("ScanPower = %v, want %v", got, want)
	}
}

func TestUMTSPublishWindows(t *testing.T) {
	u := NewUMTS(30)
	d, ws := u.Publish()
	if d <= 0 || len(ws) != 3 {
		t.Fatalf("Publish = %v, %d windows", d, len(ws))
	}
	// One full connection cycle: ≈ 3 J open + transfer + ≈ 9.9 J tail.
	e := float64(TotalEnergy(ws))
	if e < 10 || e > 18 {
		t.Fatalf("publish energy = %v J", e)
	}
}

func TestWiFiAccessors(t *testing.T) {
	w := NewWiFi(31)
	if w.ConnectedPower() != WiFiConnectedPower {
		t.Fatalf("ConnectedPower = %v", w.ConnectedPower())
	}
	if w.PerHopLatency() != WiFiPerHopLatency {
		t.Fatalf("PerHopLatency = %v", w.PerHopLatency())
	}
	// First hop carries the fixed cost on average.
	var first, later time.Duration
	for i := 0; i < 300; i++ {
		first += w.HopLatency(true)
		later += w.HopLatency(false)
	}
	if first <= later {
		t.Fatalf("first-hop latency %v not above later hops %v", first/300, later/300)
	}
}

// A keyed model value draws exactly what a NewWiFi of that key draws: the
// SM plane's per-hop draws and a device's model share one sampler.
func TestKeyedWiFiMatchesNewWiFi(t *testing.T) {
	for key := uint64(0); key < 50; key++ {
		w, fresh := KeyedWiFi(key), NewWiFi(int64(key))
		for k := 0; k < 5; k++ {
			if got, want := w.HopLatency(k == 0), fresh.HopLatency(k == 0); got != want {
				t.Fatalf("key %d draw %d: keyed %v, NewWiFi %v", key, k, got, want)
			}
		}
	}
}

// Jittered turns a 90 % confidence half-width ci over n≈10 runs into
// mean + N(0, σ) with σ = ci·√10/1.645 ≈ 1.92·ci. With the mean far above
// the 10 % floor no draw is clamped, so the sample spread is σ itself.
func TestJitteredSigma(t *testing.T) {
	s := NewSampler(5)
	const n = 100000
	mean, ci := 100*time.Second, time.Second
	var sum, sq float64
	for i := 0; i < n; i++ {
		x := float64(s.Jittered(mean, ci)-mean) / float64(ci)
		sum += x
		sq += x * x
	}
	m := sum / n
	sd := math.Sqrt(sq/n - m*m)
	if math.Abs(m) > 0.03 || math.Abs(sd-1.92) > 0.02 {
		t.Fatalf("Jittered: mean offset %.3f·ci, sd %.3f·ci; want 0 and 1.92", m, sd)
	}
}

func TestUniformMWDegenerate(t *testing.T) {
	s := NewSampler(2)
	if got := s.UniformMW(500, 500); got != 500 {
		t.Fatalf("degenerate UniformMW = %v", got)
	}
	if got := s.UniformMW(500, 100); got != 500 {
		t.Fatalf("inverted UniformMW = %v", got)
	}
	for i := 0; i < 100; i++ {
		v := float64(s.UniformMW(450, 481))
		if v < 450 || v > 481 {
			t.Fatalf("UniformMW out of range: %v", v)
		}
	}
}
