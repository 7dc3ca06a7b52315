package provider

import (
	"errors"
	"testing"
	"time"

	"contory/internal/cxt"
	"contory/internal/query"
	"contory/internal/refs"
	"contory/internal/simnet"
)

func TestTransportString(t *testing.T) {
	if TransportBT.String() != "bt" || TransportWiFi.String() != "wifi" {
		t.Fatalf("Transport strings: %s/%s", TransportBT, TransportWiFi)
	}
}

func TestNewAdHocValidation(t *testing.T) {
	w := newWorld(t)
	q := query.MustParse("SELECT temperature FROM adHocNetwork(all,1) DURATION 1 min")
	if _, err := NewAdHoc(AdHocConfig{Clock: w.clk, Transport: TransportBT}); err == nil {
		t.Error("nil query accepted")
	}
	if _, err := NewAdHoc(AdHocConfig{Clock: w.clk, Query: q, Transport: TransportBT}); !errors.Is(err, ErrNoSource) {
		t.Errorf("BT without reference = %v", err)
	}
	if _, err := NewAdHoc(AdHocConfig{Clock: w.clk, Query: q, Transport: TransportWiFi}); !errors.Is(err, ErrNoSource) {
		t.Errorf("WiFi without reference = %v", err)
	}
	if _, err := NewAdHoc(AdHocConfig{Clock: w.clk, Query: q, Transport: Transport(9), WiFi: w.wifiA}); err == nil {
		t.Error("unknown transport accepted")
	}
	p, err := NewAdHoc(AdHocConfig{Clock: w.clk, Query: q, Transport: TransportBT, BT: w.btA})
	if err != nil {
		t.Fatal(err)
	}
	if p.Transport() != TransportBT {
		t.Errorf("transport = %s", p.Transport())
	}
	p.UpdateQuery(query.MustParse("SELECT temperature FROM adHocNetwork(all,1) DURATION 2 min"))
	if p.liveQuery().Duration.Time != 2*time.Minute {
		t.Error("UpdateQuery ignored")
	}
}

func TestNewInfraValidation(t *testing.T) {
	w := newWorld(t)
	q := query.MustParse("SELECT weather FROM extInfra DURATION 1 min")
	if _, err := NewInfra(InfraConfig{Clock: w.clk}); err == nil {
		t.Error("nil query accepted")
	}
	if _, err := NewInfra(InfraConfig{Clock: w.clk, Query: q}); !errors.Is(err, ErrNoSource) {
		t.Errorf("infra without reference = %v", err)
	}
	p, err := NewInfra(InfraConfig{Clock: w.clk, Query: q, UMTS: w.umtsA})
	if err != nil {
		t.Fatal(err)
	}
	p.UpdateQuery(query.MustParse("SELECT weather FROM extInfra DURATION 5 min"))
	if p.liveQuery().Duration.Time != 5*time.Minute {
		t.Error("UpdateQuery ignored")
	}
}

func TestInfraQueryFromScoping(t *testing.T) {
	region := query.MustParse("SELECT weather FROM region(60.1,24.9,0.5) DURATION 1 min")
	iq := infraQueryFrom(region)
	if iq.Region == nil || iq.Region.X != 60.1 || iq.Region.Radius != 0.5 {
		t.Errorf("region scope = %+v", iq.Region)
	}
	entity := query.MustParse("SELECT location FROM entity(friend1) DURATION 1 min")
	iq = infraQueryFrom(entity)
	if iq.Entity != "friend1" {
		t.Errorf("entity scope = %q", iq.Entity)
	}
	multi := query.MustParse("SELECT weather FROM adHocNetwork(5,1) FRESHNESS 30 sec DURATION 1 min")
	iq = infraQueryFrom(multi)
	if iq.MaxItems != 5 || iq.Freshness != 30*time.Second {
		t.Errorf("iq = %+v", iq)
	}
}

func TestAdHocBTEventQuery(t *testing.T) {
	w := newWorld(t)
	w.btB.RegisterService(refs.ServiceRecord{
		Name: "temperature",
		Item: cxt.Item{Type: cxt.TypeTemperature, Value: 30.0, Timestamp: w.clk.Now()},
	}, nil)
	var got []cxt.Item
	p, err := NewAdHoc(AdHocConfig{
		Clock:     w.clk,
		Query:     query.MustParse("SELECT temperature FROM adHocNetwork(all,1) DURATION 5 min EVENT temperature>25"),
		Sink:      func(it cxt.Item) { got = append(got, it) },
		Transport: TransportBT,
		BT:        w.btA,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	w.clk.Advance(time.Minute)
	if len(got) == 0 {
		t.Fatal("event query above threshold delivered nothing")
	}
	// Update the service below the threshold: deliveries stop once the
	// observation window drains.
	w.btB.RegisterService(refs.ServiceRecord{
		Name: "temperature",
		Item: cxt.Item{Type: cxt.TypeTemperature, Value: 10.0, Timestamp: w.clk.Now()},
	}, nil)
	w.clk.Advance(30 * time.Second) // window still mixed
	w.clk.Advance(2 * time.Minute)
	n := len(got)
	w.clk.Advance(time.Minute)
	if len(got) != n {
		t.Fatalf("event query kept firing below threshold: %d → %d", n, len(got))
	}
	p.Stop()
}

func TestAdHocWiFiEventQuery(t *testing.T) {
	w := newWorld(t)
	w.wifiB.PublishTag("temperature", cxt.Item{
		Type: cxt.TypeTemperature, Value: 30.0, Timestamp: w.clk.Now(), Lifetime: time.Hour,
	}, 0)
	var got []cxt.Item
	p, err := NewAdHoc(AdHocConfig{
		Clock:     w.clk,
		Query:     query.MustParse("SELECT temperature FROM adHocNetwork(all,1) DURATION 5 min EVENT temperature>25"),
		Sink:      func(it cxt.Item) { got = append(got, it) },
		Transport: TransportWiFi,
		WiFi:      w.wifiA,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	w.clk.Advance(time.Minute)
	if len(got) == 0 {
		t.Fatal("WiFi event query above threshold delivered nothing")
	}
	p.Stop()
}

func TestLocalGPSEventQuery(t *testing.T) {
	w := newWorld(t)
	// GPS speed 4.5 kn; event fires when speed exceeds 4.
	var got []cxt.Item
	p, err := NewLocal(LocalConfig{
		Clock:     w.clk,
		Query:     query.MustParse("SELECT location FROM intSensor DURATION 5 min EVENT speed>4"),
		Sink:      func(it cxt.Item) { got = append(got, it) },
		BT:        w.btA,
		GPSDevice: "bt-gps-1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	w.clk.Advance(30 * time.Second)
	if len(got) == 0 {
		t.Fatal("GPS event query delivered nothing above threshold")
	}
	p.Stop()
}

func TestLocalGPSOnDemand(t *testing.T) {
	w := newWorld(t)
	var got []cxt.Item
	done := false
	p, err := NewLocal(LocalConfig{
		Clock:     w.clk,
		Query:     query.MustParse("SELECT location FROM intSensor DURATION 1 samples"),
		Sink:      func(it cxt.Item) { got = append(got, it) },
		OnDone:    func() { done = true },
		BT:        w.btA,
		GPSDevice: "bt-gps-1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	w.clk.Advance(10 * time.Second)
	if len(got) != 1 || !done {
		t.Fatalf("items=%d done=%v, want single fix then completion", len(got), done)
	}
}

func TestLocalSpeedQueryFromGPS(t *testing.T) {
	w := newWorld(t)
	var got []cxt.Item
	p, err := NewLocal(LocalConfig{
		Clock:     w.clk,
		Query:     query.MustParse("SELECT speed FROM intSensor DURATION 1 min EVERY 5 sec"),
		Sink:      func(it cxt.Item) { got = append(got, it) },
		BT:        w.btA,
		GPSDevice: "bt-gps-1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	w.clk.Advance(20 * time.Second)
	if len(got) == 0 {
		t.Fatal("no speed items")
	}
	if got[0].Type != cxt.TypeSpeed || got[0].Value != 4.5 {
		t.Fatalf("item = %+v", got[0])
	}
	p.Stop()
}

// A round armed after Stop is cancelled at once, a periodic one is never
// armed, and a release hook set after Stop runs at once.
func TestRoundAfterStop(t *testing.T) {
	w := newWorld(t)
	temp := 20.0
	w.thermometer(&temp)
	p, err := NewLocal(LocalConfig{
		Clock:    w.clk,
		Query:    query.MustParse("SELECT temperature FROM intSensor DURATION 1 min EVERY 5 sec"),
		Internal: w.internal,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Stop()
	pending := w.clk.Pending()
	fired, released := 0, 0
	p.arm(w.clk.After(time.Second, func() { fired++ }))
	p.armEvery(func() { fired++ })
	p.onRelease(func() { released++ })
	if got := w.clk.Pending(); got != pending {
		t.Fatalf("%d timers pending after arming a stopped provider, want %d", got, pending)
	}
	w.clk.Advance(time.Minute)
	if fired != 0 || released != 1 {
		t.Fatalf("rounds fired %d times and the release ran %d times after Stop, want 0 and 1", fired, released)
	}
}

func TestAdHocEntityAddressedQuery(t *testing.T) {
	w := newWorld(t)
	// Both peers publish a location tag; an entity(far) query must return
	// only far's.
	w.wifiB.PublishTag("location", cxt.Item{
		Type: cxt.TypeLocation, Value: cxt.Fix{Lat: 1}, Timestamp: w.clk.Now(),
	}, 0)
	w.wifiC.PublishTag("location", cxt.Item{
		Type: cxt.TypeLocation, Value: cxt.Fix{Lat: 2}, Timestamp: w.clk.Now(),
	}, 0)
	var got []cxt.Item
	p, err := NewAdHoc(AdHocConfig{
		Clock:     w.clk,
		Query:     query.MustParse("SELECT location FROM entity(c) DURATION 1 min"),
		Sink:      func(it cxt.Item) { got = append(got, it) },
		Transport: TransportWiFi,
		WiFi:      w.wifiA,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	w.clk.Advance(time.Minute)
	if len(got) != 1 {
		t.Fatalf("items = %d, want exactly the entity's item", len(got))
	}
	fix, ok := got[0].Value.(cxt.Fix)
	if !ok || fix.Lat != 2 {
		t.Fatalf("item = %+v, want far's fix", got[0])
	}
	if got[0].Source.Address != "c" {
		t.Fatalf("source = %+v", got[0].Source)
	}
}

func TestAdHocRegionScopedQuery(t *testing.T) {
	w := newWorld(t)
	// Place b inside the region and c outside it.
	w.nw.Node("b").SetPosition(simnet.Position{X: 100, Y: 100})
	w.nw.Node("c").SetPosition(simnet.Position{X: 900, Y: 900})
	w.wifiB.PublishTag("temperature", cxt.Item{
		Type: cxt.TypeTemperature, Value: 11.0, Timestamp: w.clk.Now(),
	}, 0)
	w.wifiC.PublishTag("temperature", cxt.Item{
		Type: cxt.TypeTemperature, Value: 99.0, Timestamp: w.clk.Now(),
	}, 0)
	var got []cxt.Item
	p, err := NewAdHoc(AdHocConfig{
		Clock:     w.clk,
		Query:     query.MustParse("SELECT temperature FROM region(100,100,200) DURATION 1 min"),
		Sink:      func(it cxt.Item) { got = append(got, it) },
		Transport: TransportWiFi,
		WiFi:      w.wifiA,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	w.clk.Advance(time.Minute)
	if len(got) != 1 || got[0].Value != 11.0 {
		t.Fatalf("items = %+v, want only the in-region observation", got)
	}
}

func TestAdHocBTKnownDevicesSkipDiscovery(t *testing.T) {
	w := newWorld(t)
	w.btB.RegisterService(refs.ServiceRecord{
		Name: "temperature",
		Item: cxt.Item{Type: cxt.TypeTemperature, Value: 16.0, Timestamp: w.clk.Now()},
	}, nil)
	w.clk.Advance(time.Second)
	var got []cxt.Item
	p, err := NewAdHoc(AdHocConfig{
		Clock:        w.clk,
		Query:        query.MustParse("SELECT temperature FROM adHocNetwork(all,1) DURATION 2 min EVERY 10 sec"),
		Sink:         func(it cxt.Item) { got = append(got, it) },
		Transport:    TransportBT,
		BT:           w.btA,
		KnownDevices: []simnet.NodeID{"b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	// Only SDP (≈1.12 s) stands between start and the first round: items
	// must arrive well before the 13-s inquiry would have completed.
	w.clk.Advance(12 * time.Second)
	if len(got) == 0 {
		t.Fatal("pre-known device list did not skip inquiry")
	}
	// No inquiry energy was spent.
	if e := float64(w.btA.Node().Timeline().WindowEnergy("bt-inquiry")); e != 0 {
		t.Fatalf("inquiry energy = %v J, want 0", e)
	}
	p.Stop()
}

// A pre-known device the phone cannot reach fails its SDP exchange at
// once. The collection is still scheduled once, after every exchange is
// done: the provider arms one periodic round, and Stop leaves no timer.
func TestAdHocBTUnreachableKnownDevice(t *testing.T) {
	w := newWorld(t)
	p, err := NewAdHoc(AdHocConfig{
		Clock:        w.clk,
		Query:        query.MustParse("SELECT temperature FROM adHocNetwork(all,1) DURATION 2 min EVERY 10 sec"),
		Transport:    TransportBT,
		BT:           w.btA,
		KnownDevices: []simnet.NodeID{"c"}, // no BT link a—c
	})
	if err != nil {
		t.Fatal(err)
	}
	before := w.clk.Pending()
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if got := w.clk.Pending() - before; got != 1 {
		t.Fatalf("Start armed %d timers, want the one periodic round", got)
	}
	p.Stop()
	if got := w.clk.Pending(); got != before {
		t.Fatalf("%d timers pending after Stop, %d before Start", got, before)
	}
}
