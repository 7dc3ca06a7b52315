package provider

import (
	"testing"
	"time"

	"contory/internal/cxt"
	"contory/internal/gps"
	"contory/internal/monitor"
	"contory/internal/query"
	"contory/internal/radio"
	"contory/internal/refs"
	"contory/internal/simnet"
	"contory/internal/vclock"
)

// gpsFixRig is phone "a" running an hourly periodic location query off the
// BT-GPS stream of node "gps", which sends nothing by itself: fix delivers
// one burst and lets a second of virtual time pass.
type gpsFixRig struct {
	clk   *vclock.Simulator
	items []cxt.Item
	fix   func(burst any)
}

func newGPSFixRig(tb testing.TB) *gpsFixRig {
	tb.Helper()
	clk := vclock.NewSimulator()
	nw := simnet.New(clk)
	for _, id := range []simnet.NodeID{"a", "gps"} {
		if _, err := nw.AddNode(id, simnet.Position{}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := nw.Connect("a", "gps", radio.MediumBT); err != nil {
		tb.Fatal(err)
	}
	bt, err := refs.NewBTReference(nw, "a", radio.NewBT(1), monitor.New(clk))
	if err != nil {
		tb.Fatal(err)
	}
	r := &gpsFixRig{clk: clk}
	p, err := NewLocal(LocalConfig{
		Clock:     clk,
		Query:     query.MustParse("SELECT location FROM intSensor DURATION 2 hour EVERY 1 hour"),
		Sink:      func(it cxt.Item) { r.items = append(r.items, it) },
		BT:        bt,
		GPSDevice: "gps",
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := p.Start(); err != nil {
		tb.Fatal(err)
	}
	r.fix = func(burst any) {
		msg := simnet.Message{From: "gps", To: "a", Medium: radio.MediumBT, Kind: gps.KindNMEA, Payload: burst, Bytes: gps.BurstBytes}
		if err := nw.Send(msg, 0); err != nil {
			tb.Fatal(err)
		}
		clk.Advance(time.Second)
	}
	return r
}

// TestGPSFixAllocs: one fix, from the frame's delivery through the NMEA
// parse and the energy window to a periodic query's onFix, allocates at
// most the watchdog's re-armed timer; the burst is rendered once, outside
// the measurement. The item built at the period carries the latest fix,
// stamped with its arrival time.
func TestGPSFixAllocs(t *testing.T) {
	r := newGPSFixRig(t)
	fix := cxt.Fix{Lat: 60.16, Lon: 24.93, SpeedKn: 4.5, Course: 90}
	var burst any = gps.Burst(fix, r.clk.Now())
	if got := testing.AllocsPerRun(100, func() { r.fix(burst) }); got > 1 {
		t.Fatalf("one fix: %v allocations, want at most 1 (the watchdog timer)", got)
	}
	lastAt := r.clk.Now().Add(-time.Second)
	if len(r.items) != 0 {
		t.Fatalf("%d items before the first period", len(r.items))
	}
	r.clk.AdvanceTo(vclock.Epoch.Add(time.Hour))
	if len(r.items) != 1 {
		t.Fatalf("%d items at the first period, want 1", len(r.items))
	}
	it := r.items[0]
	got, ok := it.Value.(cxt.Fix)
	if it.Type != cxt.TypeLocation || !ok || got.Lat != 60.16 || !it.Timestamp.Equal(lastAt) {
		t.Fatalf("item = %+v, want the last fix stamped %v", it, lastAt)
	}
}

func BenchmarkGPSFix(b *testing.B) {
	r := newGPSFixRig(b)
	var burst any = gps.Burst(cxt.Fix{Lat: 60.16, Lon: 24.93, SpeedKn: 4.5, Course: 90}, r.clk.Now())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.fix(burst)
	}
}
