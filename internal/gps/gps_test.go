package gps

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"contory/internal/cxt"
	"contory/internal/radio"
	"contory/internal/simnet"
	"contory/internal/vclock"
)

var testTime = time.Date(2005, time.June, 10, 12, 0, 0, 0, time.UTC)

func TestChecksum(t *testing.T) {
	// Known NMEA example: "GPGGA,..." checksums are XORs; verify the
	// involution property ($X*CS reparses).
	body := "GPRMC,120000,A,6009.6000,N,02456.0000,E,005.20,270.00,100605,,"
	s := "$" + body + "*" + strings.ToUpper(hex2(Checksum(body)))
	if _, err := checkFrame(s); err != nil {
		t.Fatalf("checkFrame: %v", err)
	}
}

func hex2(b byte) string {
	const digits = "0123456789abcdef"
	return string([]byte{digits[b>>4], digits[b&0xf]})
}

func TestFormatParseRMCRoundTrip(t *testing.T) {
	fix := cxt.Fix{Lat: 60.16, Lon: 24.9333, SpeedKn: 5.2, Course: 270}
	s := FormatRMC(fix, testTime)
	got, err := ParseRMC(s)
	if err != nil {
		t.Fatalf("ParseRMC(%q): %v", s, err)
	}
	if math.Abs(got.Lat-fix.Lat) > 1e-4 || math.Abs(got.Lon-fix.Lon) > 1e-4 {
		t.Fatalf("coords = (%v,%v), want (%v,%v)", got.Lat, got.Lon, fix.Lat, fix.Lon)
	}
	if math.Abs(got.SpeedKn-fix.SpeedKn) > 0.01 || math.Abs(got.Course-fix.Course) > 0.01 {
		t.Fatalf("speed/course = %v/%v", got.SpeedKn, got.Course)
	}
}

func TestSouthWestHemispheres(t *testing.T) {
	fix := cxt.Fix{Lat: -33.85, Lon: -151.2, SpeedKn: 0, Course: 0}
	got, err := ParseRMC(FormatRMC(fix, testTime))
	if err != nil {
		t.Fatal(err)
	}
	if got.Lat >= 0 || got.Lon >= 0 {
		t.Fatalf("hemispheres lost: %+v", got)
	}
	if math.Abs(got.Lat-fix.Lat) > 1e-4 || math.Abs(got.Lon-fix.Lon) > 1e-4 {
		t.Fatalf("coords = %+v", got)
	}
}

func TestParseRMCErrors(t *testing.T) {
	bad := []string{
		"",
		"GPRMC,no,dollar",
		"$GPRMC,120000,A,6009.6,N,02456.0,E,5,270,100605,,*00", // wrong checksum
		"$GPGGA,120000*00",
		"$GPRMC,120000,V,6009.6000,N,02456.0000,E,005.20,270.00,100605,,*00",
	}
	for _, s := range bad {
		if _, err := ParseRMC(s); !errors.Is(err, ErrBadSentence) {
			t.Errorf("ParseRMC(%q) = %v, want ErrBadSentence", s, err)
		}
	}
}

func TestBurstSizeAndParse(t *testing.T) {
	fix := cxt.Fix{Lat: 60.16, Lon: 24.9333, SpeedKn: 3.1, Course: 90}
	b := Burst(fix, testTime)
	if len(b) != BurstBytes {
		t.Fatalf("burst size = %d, want %d (paper: 340 B)", len(b), BurstBytes)
	}
	got, err := ParseBurst(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Lat-fix.Lat) > 1e-4 {
		t.Fatalf("burst fix = %+v", got)
	}
	if _, err := ParseBurst("no sentences here"); !errors.Is(err, ErrBadSentence) {
		t.Fatalf("ParseBurst(garbage) = %v", err)
	}
}

// Property: format→parse round-trips any reasonable fix.
func TestRMCRoundTripProperty(t *testing.T) {
	prop := func(lat100, lon100 int32, speed10, course10 uint16) bool {
		fix := cxt.Fix{
			Lat:     float64(lat100%9000) / 100,
			Lon:     float64(lon100%18000) / 100,
			SpeedKn: float64(speed10%999) / 10,
			Course:  float64(course10 % 360),
		}
		got, err := ParseRMC(FormatRMC(fix, testTime))
		if err != nil {
			return false
		}
		return math.Abs(got.Lat-fix.Lat) < 1e-3 &&
			math.Abs(got.Lon-fix.Lon) < 1e-3 &&
			math.Abs(got.SpeedKn-fix.SpeedKn) < 0.01 &&
			math.Abs(got.Course-fix.Course) < 0.01
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func newTestbed(t *testing.T) (*simnet.Network, *vclock.Simulator, *Device, *simnet.Node) {
	t.Helper()
	clk := vclock.NewSimulator()
	nw := simnet.New(clk)
	phone, err := nw.AddNode("phone", simnet.Position{})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewDevice(nw, "bt-gps-1", cxt.Fix{Lat: 60.16, Lon: 24.93, SpeedKn: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Connect("phone", dev.ID(), radio.MediumBT); err != nil {
		t.Fatal(err)
	}
	return nw, clk, dev, phone
}

func TestDeviceStreamsAtOneHz(t *testing.T) {
	nw, clk, dev, phone := newTestbed(t)
	defer dev.Close()
	var bursts []string
	phone.Handle(KindNMEA, func(m simnet.Message) {
		s, ok := m.Payload.(string)
		if !ok {
			t.Errorf("payload type %T", m.Payload)
			return
		}
		bursts = append(bursts, s)
	})
	err := nw.Send(simnet.Message{
		From: "phone", To: dev.ID(), Medium: radio.MediumBT, Kind: KindSubscribe,
	}, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(10*time.Second + 100*time.Millisecond)
	if len(bursts) != 10 {
		t.Fatalf("received %d bursts in 10 s, want 10", len(bursts))
	}
	fix, err := ParseBurst(bursts[0])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fix.Lat-60.16) > 1e-3 {
		t.Fatalf("fix = %+v", fix)
	}
}

func TestDeviceFailureStopsStream(t *testing.T) {
	nw, clk, dev, phone := newTestbed(t)
	defer dev.Close()
	count := 0
	phone.Handle(KindNMEA, func(simnet.Message) { count++ })
	err := nw.Send(simnet.Message{
		From: "phone", To: dev.ID(), Medium: radio.MediumBT, Kind: KindSubscribe,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	before := count
	if before == 0 {
		t.Fatal("no samples before failure")
	}
	dev.SetFailed(true) // Fig. 5: GPS manually switched off
	if !dev.Failed() {
		t.Fatal("Failed() = false")
	}
	clk.Advance(10 * time.Second)
	if count != before {
		t.Fatalf("samples kept flowing after failure: %d → %d", before, count)
	}
	dev.SetFailed(false) // GPS becomes available again
	clk.Advance(3 * time.Second)
	if count <= before {
		t.Fatal("stream did not resume after recovery")
	}
}

func TestDeviceUnsubscribe(t *testing.T) {
	nw, clk, dev, phone := newTestbed(t)
	defer dev.Close()
	count := 0
	phone.Handle(KindNMEA, func(simnet.Message) { count++ })
	if err := nw.Send(simnet.Message{
		From: "phone", To: dev.ID(), Medium: radio.MediumBT, Kind: KindSubscribe,
	}, 0); err != nil {
		t.Fatal(err)
	}
	clk.Advance(3 * time.Second)
	if err := nw.Send(simnet.Message{
		From: "phone", To: dev.ID(), Medium: radio.MediumBT, Kind: KindUnsubscribe,
	}, 0); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second) // drain in-flight
	before := count
	clk.Advance(5 * time.Second)
	if count != before {
		t.Fatalf("samples after unsubscribe: %d → %d", before, count)
	}
}

func TestDeviceSetFix(t *testing.T) {
	_, clk, dev, phone := newTestbed(t)
	defer dev.Close()
	var last string
	phone.Handle(KindNMEA, func(m simnet.Message) {
		if s, ok := m.Payload.(string); ok {
			last = s
		}
	})
	nw := dev.net
	if err := nw.Send(simnet.Message{
		From: "phone", To: dev.ID(), Medium: radio.MediumBT, Kind: KindSubscribe,
	}, 0); err != nil {
		t.Fatal(err)
	}
	dev.SetFix(cxt.Fix{Lat: 61.5, Lon: 23.75, SpeedKn: 7})
	clk.Advance(2 * time.Second)
	fix, err := ParseBurst(last)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fix.Lat-61.5) > 1e-3 || math.Abs(fix.SpeedKn-7) > 0.01 {
		t.Fatalf("fix = %+v", fix)
	}
	if got := dev.Fix(); got.Lat != 61.5 {
		t.Fatalf("Fix() = %+v", got)
	}
}

// TestDeviceIdleTicksSendNothing: a device with no subscriber sends no
// frames, and a subscriber that arrives later gets a burst stamped with
// the virtual time of the tick that sent it.
func TestDeviceIdleTicksSendNothing(t *testing.T) {
	nw, clk, dev, phone := newTestbed(t)
	defer dev.Close()
	clk.Advance(5*time.Second + 500*time.Millisecond)
	if delivered, dropped := nw.Stats(); delivered != 0 || dropped != 0 {
		t.Fatalf("idle device: %d frames delivered, %d dropped, want none", delivered, dropped)
	}
	var bursts []string
	phone.Handle(KindNMEA, func(m simnet.Message) { bursts = append(bursts, m.Payload.(string)) })
	if err := nw.Send(simnet.Message{
		From: "phone", To: dev.ID(), Medium: radio.MediumBT, Kind: KindSubscribe,
	}, 0); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if len(bursts) != 1 {
		t.Fatalf("late subscriber got %d bursts in the next second, want 1", len(bursts))
	}
	if want := FormatRMC(dev.Fix(), vclock.Epoch.Add(6*time.Second)); !strings.HasPrefix(bursts[0], want+"\r\n") {
		t.Fatalf("burst %q does not start with %q", bursts[0], want)
	}
}

// TestDeviceSendsInNodeIDOrder: with several subscribers, every run
// delivers each burst to them in NodeID order, not in map order.
func TestDeviceSendsInNodeIDOrder(t *testing.T) {
	subscribers := []simnet.NodeID{"phone-d", "phone-a", "phone-c", "phone-b"}
	want := []simnet.NodeID{"phone-a", "phone-b", "phone-c", "phone-d"}
	for run := 0; run < 40; run++ {
		clk := vclock.NewSimulator()
		nw := simnet.New(clk)
		dev, err := NewDevice(nw, "bt-gps-1", cxt.Fix{Lat: 60.16, Lon: 24.93})
		if err != nil {
			t.Fatal(err)
		}
		var got []simnet.NodeID
		for _, id := range subscribers {
			phone, err := nw.AddNode(id, simnet.Position{})
			if err != nil {
				t.Fatal(err)
			}
			if err := nw.Connect(id, dev.ID(), radio.MediumBT); err != nil {
				t.Fatal(err)
			}
			phone.Handle(KindNMEA, func(m simnet.Message) { got = append(got, m.To) })
			if err := nw.Send(simnet.Message{
				From: id, To: dev.ID(), Medium: radio.MediumBT, Kind: KindSubscribe,
			}, 0); err != nil {
				t.Fatal(err)
			}
		}
		clk.Advance(time.Second + 100*time.Millisecond)
		dev.Close()
		if !slices.Equal(got, want) {
			t.Fatalf("run %d: delivery order %v, want %v", run, got, want)
		}
	}
}

// TestDeviceTickAllocs: a tick renders its burst and boxes it once,
// however many phones subscribe: two allocations per tick with one
// subscriber or four. Unsubscribing one keeps the rest in NodeID order.
func TestDeviceTickAllocs(t *testing.T) {
	clk := vclock.NewSimulator()
	nw := simnet.New(clk)
	dev, err := NewDevice(nw, "bt-gps-1", cxt.Fix{Lat: 60.16, Lon: 24.93})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	var got []simnet.NodeID
	subscribe := func(id simnet.NodeID, kind string) {
		if err := nw.Send(simnet.Message{From: id, To: dev.ID(), Medium: radio.MediumBT, Kind: kind}, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range []simnet.NodeID{"phone-d", "phone-a", "phone-c", "phone-b"} {
		phone, err := nw.AddNode(id, simnet.Position{})
		if err != nil {
			t.Fatal(err)
		}
		if err := nw.Connect(id, dev.ID(), radio.MediumBT); err != nil {
			t.Fatal(err)
		}
		phone.Handle(KindNMEA, func(m simnet.Message) {
			// Record only once got has room: measured ticks append nothing.
			if len(got) < cap(got) {
				got = append(got, m.To)
			}
		})
		subscribe(id, KindSubscribe)
		clk.Advance(time.Second)
		if n := testing.AllocsPerRun(20, func() { clk.Advance(time.Second) }); n != 2 {
			t.Errorf("tick with %d subscribers: %v allocations, want 2", i+1, n)
		}
	}
	subscribe("phone-b", KindUnsubscribe)
	clk.Advance(500 * time.Millisecond)
	got = make([]simnet.NodeID, 0, 3)
	clk.Advance(time.Second)
	if want := []simnet.NodeID{"phone-a", "phone-c", "phone-d"}; !slices.Equal(got, want) {
		t.Fatalf("after unsubscribing phone-b: delivery order %v, want %v", got, want)
	}
}
