package provider

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"contory/internal/cxt"
	"contory/internal/fuego"
	"contory/internal/gps"
	"contory/internal/monitor"
	"contory/internal/query"
	"contory/internal/radio"
	"contory/internal/refs"
	"contory/internal/simnet"
	"contory/internal/sm"
	"contory/internal/vclock"
)

// world is a full simulated testbed: phone "a" with all references, peer
// phones "b"/"c" (WiFi line a—b—c, BT link a—b), a BT-GPS device, and an
// infrastructure server over UMTS.
type world struct {
	clk      *vclock.Simulator
	nw       *simnet.Network
	mon      *monitor.Monitor
	internal *refs.InternalReference
	btA      *refs.BTReference
	btB      *refs.BTReference
	wifiA    *refs.WiFiReference
	wifiB    *refs.WiFiReference
	wifiC    *refs.WiFiReference
	umtsA    *refs.UMTSReference
	srv      *fuego.Server
	gpsDev   *gps.Device
}

func newWorld(t *testing.T) *world {
	t.Helper()
	clk := vclock.NewSimulator()
	nw := simnet.New(clk)
	w := &world{clk: clk, nw: nw, mon: monitor.New(clk)}
	for _, id := range []simnet.NodeID{"a", "b", "c", "infra"} {
		if _, err := nw.AddNode(id, simnet.Position{}); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	w.gpsDev, err = gps.NewDevice(nw, "bt-gps-1", cxt.Fix{Lat: 60.16, Lon: 24.93, SpeedKn: 4.5})
	if err != nil {
		t.Fatal(err)
	}
	links := []struct {
		a, b simnet.NodeID
		m    radio.Medium
	}{
		{"a", "b", radio.MediumBT},
		{"a", "bt-gps-1", radio.MediumBT},
		{"a", "b", radio.MediumWiFi},
		{"b", "c", radio.MediumWiFi},
		{"a", "infra", radio.MediumUMTS},
	}
	for _, l := range links {
		if err := nw.Connect(l.a, l.b, l.m); err != nil {
			t.Fatal(err)
		}
	}
	w.internal = refs.NewInternalReference(clk, w.mon)
	w.btA, err = refs.NewBTReference(nw, "a", radio.NewBT(1), w.mon)
	if err != nil {
		t.Fatal(err)
	}
	w.btB, err = refs.NewBTReference(nw, "b", radio.NewBT(2), monitor.New(clk))
	if err != nil {
		t.Fatal(err)
	}
	p := sm.NewPlatform(nw, 3)
	w.wifiA, err = refs.NewWiFiReference(p, "a", radio.NewWiFi(4), w.mon)
	if err != nil {
		t.Fatal(err)
	}
	w.wifiB, err = refs.NewWiFiReference(p, "b", radio.NewWiFi(5), monitor.New(clk))
	if err != nil {
		t.Fatal(err)
	}
	w.wifiC, err = refs.NewWiFiReference(p, "c", radio.NewWiFi(6), monitor.New(clk))
	if err != nil {
		t.Fatal(err)
	}
	u := radio.NewUMTS(7)
	w.srv, err = fuego.NewServer(nw, "infra", u)
	if err != nil {
		t.Fatal(err)
	}
	w.umtsA, err = refs.NewUMTSReference(nw, "a", "infra", u, w.mon)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// thermometer registers an integrated temperature sensor returning temp.
func (w *world) thermometer(temp *float64) {
	w.internal.Register(refs.FuncSensor{
		SensorName: "thermometer-0",
		CxtType:    cxt.TypeTemperature,
		ReadFunc: func(now time.Time) (cxt.Item, error) {
			return cxt.Item{
				Type: cxt.TypeTemperature, Value: *temp, Timestamp: now,
				Meta: cxt.Metadata{Accuracy: 0.2, Correctness: 0.95},
			}, nil
		},
	})
}

// stopsOnce checks a provider's one teardown: after Stop, a second Stop
// and a late finish, no item arrives, the completion callback stays
// silent and the release hook has run once. *done counts completions.
func stopsOnce(t *testing.T, w *world, b *base, got *[]cxt.Item, done *int) {
	t.Helper()
	released := 0
	b.onRelease(func() { released++ })
	n, finished := len(*got), *done
	b.Stop()
	b.Stop()
	b.finish()
	w.clk.Advance(time.Minute)
	if len(*got) != n || *done != finished || released != 1 {
		t.Fatalf("after Stop: %d more items, %d completions, release ran %d times; want 0, 0, 1",
			len(*got)-n, *done-finished, released)
	}
}

func TestLocalPeriodic(t *testing.T) {
	w := newWorld(t)
	temp := 21.0
	w.thermometer(&temp)
	var got []cxt.Item
	done := 0
	p, err := NewLocal(LocalConfig{
		Clock:    w.clk,
		Query:    query.MustParse("SELECT temperature FROM intSensor DURATION 1 min EVERY 10 sec"),
		Sink:     func(it cxt.Item) { got = append(got, it) },
		OnDone:   func() { done++ },
		Internal: w.internal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	w.clk.Advance(35 * time.Second)
	if len(got) != 3 {
		t.Fatalf("items = %d, want 3 (every 10 s for 35 s)", len(got))
	}
	if got[0].Value != 21.0 || got[0].Type != cxt.TypeTemperature {
		t.Fatalf("item = %+v", got[0])
	}
	// The DURATION is the factory's to enforce: the provider streams past
	// it until it is stopped.
	w.clk.Advance(time.Minute)
	if len(got) != 9 || done != 0 {
		t.Fatalf("items = %d, completions = %d at 95 s, want 9 and 0", len(got), done)
	}
	stopsOnce(t, w, &p.base, &got, &done)
}

func TestLocalOnDemand(t *testing.T) {
	w := newWorld(t)
	temp := 19.0
	w.thermometer(&temp)
	var got []cxt.Item
	doneCount := 0
	p, err := NewLocal(LocalConfig{
		Clock:    w.clk,
		Query:    query.MustParse("SELECT temperature FROM intSensor DURATION 1 samples"),
		Sink:     func(it cxt.Item) { got = append(got, it) },
		OnDone:   func() { doneCount++ },
		Internal: w.internal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	w.clk.Advance(time.Minute)
	if len(got) != 1 || doneCount != 1 {
		t.Fatalf("items=%d done=%d, want 1/1", len(got), doneCount)
	}
}

func TestLocalWhereFilter(t *testing.T) {
	w := newWorld(t)
	temp := 21.0
	w.thermometer(&temp)
	var got []cxt.Item
	p, err := NewLocal(LocalConfig{
		Clock:    w.clk,
		Query:    query.MustParse("SELECT temperature FROM intSensor WHERE accuracy<=0.1 DURATION 1 min EVERY 5 sec"),
		Sink:     func(it cxt.Item) { got = append(got, it) },
		Internal: w.internal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	w.clk.Advance(time.Minute)
	if len(got) != 0 {
		t.Fatalf("items = %d, want 0 (sensor accuracy 0.2 fails WHERE accuracy<=0.1)", len(got))
	}
}

func TestLocalEventQuery(t *testing.T) {
	w := newWorld(t)
	temp := 20.0
	w.thermometer(&temp)
	var got []cxt.Item
	p, err := NewLocal(LocalConfig{
		Clock:    w.clk,
		Query:    query.MustParse("SELECT temperature FROM intSensor DURATION 10 min EVENT AVG(temperature)>25"),
		Sink:     func(it cxt.Item) { got = append(got, it) },
		Internal: w.internal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	w.clk.Advance(30 * time.Second)
	if len(got) != 0 {
		t.Fatalf("event fired at 20°: %d items", len(got))
	}
	temp = 40.0 // drives the window average above 25
	w.clk.Advance(time.Minute)
	if len(got) == 0 {
		t.Fatal("event never fired after temperature rise")
	}
	p.Stop()
}

// The SAMPLES budget is the factory's to count, per original query: a
// provider keeps streaming past it until it is stopped.
func TestLocalSamplesBudget(t *testing.T) {
	w := newWorld(t)
	temp := 21.0
	w.thermometer(&temp)
	var got []cxt.Item
	done := 0
	p, err := NewLocal(LocalConfig{
		Clock:    w.clk,
		Query:    query.MustParse("SELECT temperature FROM intSensor DURATION 5 samples EVERY 2 sec"),
		Sink:     func(it cxt.Item) { got = append(got, it) },
		OnDone:   func() { done++ },
		Internal: w.internal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	w.clk.Advance(time.Minute)
	if len(got) != 30 || done != 0 {
		t.Fatalf("items = %d, completions = %d in 1 min, want 30 and 0", len(got), done)
	}
	stopsOnce(t, w, &p.base, &got, &done)
}

func TestLocalGPSPeriodic(t *testing.T) {
	w := newWorld(t)
	var got []cxt.Item
	p, err := NewLocal(LocalConfig{
		Clock:     w.clk,
		Query:     query.MustParse("SELECT location FROM intSensor DURATION 1 min EVERY 5 sec"),
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
	w.clk.Advance(21 * time.Second)
	if len(got) < 3 || len(got) > 5 {
		t.Fatalf("fixes = %d, want ≈ 4 (every 5 s)", len(got))
	}
	fix, ok := got[0].Value.(cxt.Fix)
	if !ok || fix.Lat == 0 {
		t.Fatalf("value = %+v", got[0].Value)
	}
	p.Stop()
}

func TestLocalNeedsSource(t *testing.T) {
	w := newWorld(t)
	_, err := NewLocal(LocalConfig{
		Clock: w.clk,
		Query: query.MustParse("SELECT temperature DURATION 1 min"),
	})
	if !errors.Is(err, ErrNoSource) {
		t.Fatalf("err = %v", err)
	}
}

func TestAdHocWiFiPeriodic(t *testing.T) {
	w := newWorld(t)
	// c (2 hops away) publishes temperature.
	w.wifiC.PublishTag("temperature", cxt.Item{
		Type: cxt.TypeTemperature, Value: 17.5, Timestamp: w.clk.Now(),
		Lifetime: time.Hour,
	}, 0)
	var got []cxt.Item
	p, err := NewAdHoc(AdHocConfig{
		Clock:     w.clk,
		Query:     query.MustParse("SELECT temperature FROM adHocNetwork(all,2) DURATION 2 min EVERY 20 sec"),
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
	w.clk.Advance(90 * time.Second)
	if len(got) < 2 {
		t.Fatalf("items = %d, want several periodic rounds", len(got))
	}
	if got[0].Value != 17.5 || got[0].Source.Kind != cxt.SourceAdHocNode || got[0].Source.Address != "c" {
		t.Fatalf("item = %+v", got[0])
	}
	p.Stop()
}

func TestAdHocWiFiOnDemandFinishes(t *testing.T) {
	w := newWorld(t)
	w.wifiB.PublishTag("temperature", cxt.Item{
		Type: cxt.TypeTemperature, Value: 22.0, Timestamp: w.clk.Now(),
	}, 0)
	var got []cxt.Item
	done := false
	p, err := NewAdHoc(AdHocConfig{
		Clock:     w.clk,
		Query:     query.MustParse("SELECT temperature FROM adHocNetwork(all,1) DURATION 1 min"),
		Sink:      func(it cxt.Item) { got = append(got, it) },
		OnDone:    func() { done = true },
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
	if len(got) != 1 || !done {
		t.Fatalf("items=%d done=%v", len(got), done)
	}
}

func TestAdHocBTPeriodic(t *testing.T) {
	w := newWorld(t)
	// b offers a temperature context service over BT.
	w.btB.RegisterService(refs.ServiceRecord{
		Name: "temperature",
		Item: cxt.Item{Type: cxt.TypeTemperature, Value: 16.0, Timestamp: w.clk.Now()},
	}, nil)
	var got []cxt.Item
	p, err := NewAdHoc(AdHocConfig{
		Clock:     w.clk,
		Query:     query.MustParse("SELECT temperature FROM adHocNetwork(all,1) DURATION 2 min EVERY 10 sec"),
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
	// Discovery alone takes ≈ 13 s + 1.12 s.
	w.clk.Advance(10 * time.Second)
	if len(got) != 0 {
		t.Fatal("items before discovery completed")
	}
	w.clk.Advance(80 * time.Second)
	if len(got) < 4 {
		t.Fatalf("items = %d, want periodic collection after discovery", len(got))
	}
	if got[0].Value != 16.0 {
		t.Fatalf("item = %+v", got[0])
	}
	p.Stop()
}

func TestAdHocBTRejectsMultiHop(t *testing.T) {
	w := newWorld(t)
	_, err := NewAdHoc(AdHocConfig{
		Clock:     w.clk,
		Query:     query.MustParse("SELECT temperature FROM adHocNetwork(all,3) DURATION 1 min"),
		Transport: TransportBT,
		BT:        w.btA,
	})
	if err == nil {
		t.Fatal("BT transport accepted a 3-hop query")
	}
}

func TestAdHocNumNodesLimit(t *testing.T) {
	w := newWorld(t)
	w.wifiB.PublishTag("temperature", cxt.Item{Type: cxt.TypeTemperature, Value: 1.0, Timestamp: w.clk.Now()}, 0)
	w.wifiC.PublishTag("temperature", cxt.Item{Type: cxt.TypeTemperature, Value: 2.0, Timestamp: w.clk.Now()}, 0)
	var got []cxt.Item
	p, err := NewAdHoc(AdHocConfig{
		Clock:     w.clk,
		Query:     query.MustParse("SELECT temperature FROM adHocNetwork(1,2) DURATION 1 min"),
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
		t.Fatalf("items = %d, want 1 (numNodes=1)", len(got))
	}
	if got[0].Value != 1.0 {
		t.Fatalf("item = %+v, want the nearest node's value", got[0])
	}
}

// installInfraStore wires a trivial getCxtItem handler returning the given
// items.
func installInfraStore(w *world, items func() []cxt.Item) {
	w.srv.HandleRequest(InfraOpGetItem, func(r fuego.Request) (any, error) {
		return items(), nil
	})
}

func TestInfraOnDemand(t *testing.T) {
	w := newWorld(t)
	installInfraStore(w, func() []cxt.Item {
		return []cxt.Item{{Type: cxt.TypeWeather, Value: "sunny", Timestamp: w.clk.Now()}}
	})
	var got []cxt.Item
	done := false
	p, err := NewInfra(InfraConfig{
		Clock:  w.clk,
		Query:  query.MustParse("SELECT weather FROM extInfra DURATION 1 min"),
		Sink:   func(it cxt.Item) { got = append(got, it) },
		OnDone: func() { done = true },
		UMTS:   w.umtsA,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	w.clk.Advance(30 * time.Second)
	if len(got) != 1 || !done {
		t.Fatalf("items=%d done=%v", len(got), done)
	}
	if got[0].Source.Kind != cxt.SourceInfrastructure {
		t.Fatalf("source = %+v", got[0].Source)
	}
	if !w.umtsA.GSMOn() {
		t.Fatal("infra provider did not switch the GSM radio on")
	}
}

func TestInfraPeriodic(t *testing.T) {
	w := newWorld(t)
	calls := 0
	installInfraStore(w, func() []cxt.Item {
		calls++
		return []cxt.Item{{Type: cxt.TypeWeather, Value: calls, Timestamp: w.clk.Now()}}
	})
	var got []cxt.Item
	p, err := NewInfra(InfraConfig{
		Clock: w.clk,
		Query: query.MustParse("SELECT weather FROM extInfra DURATION 10 min EVERY 1 min"),
		Sink:  func(it cxt.Item) { got = append(got, it) },
		UMTS:  w.umtsA,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	w.clk.Advance(5 * time.Minute)
	if len(got) < 3 || len(got) > 5 {
		t.Fatalf("items = %d, want ≈ 4-5", len(got))
	}
	p.Stop()
}

func TestInfraEventSubscription(t *testing.T) {
	w := newWorld(t)
	var got []cxt.Item
	p, err := NewInfra(InfraConfig{
		Clock: w.clk,
		Query: query.MustParse("SELECT temperature FROM extInfra DURATION 1 hour EVENT temperature>25"),
		Sink:  func(it cxt.Item) { got = append(got, it) },
		UMTS:  w.umtsA,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	w.clk.Advance(10 * time.Second)
	// Another phone publishes through the infrastructure.
	if _, err := w.nw.AddNode("d", simnet.Position{}); err != nil {
		t.Fatal(err)
	}
	if err := w.nw.Connect("d", "infra", radio.MediumUMTS); err != nil {
		t.Fatal(err)
	}
	cliD, err := fuego.NewClient(w.nw, "d", "infra", radio.NewUMTS(11))
	if err != nil {
		t.Fatal(err)
	}
	publish := func(v float64) {
		_, err := cliD.Publish("temperature", cxt.Item{
			Type: cxt.TypeTemperature, Value: v, Timestamp: w.clk.Now(),
		})
		if err != nil {
			t.Fatal(err)
		}
		w.clk.Advance(10 * time.Second)
	}
	publish(20) // below threshold
	if len(got) != 0 {
		t.Fatalf("event fired below threshold: %v", got)
	}
	publish(30)
	if len(got) != 1 || got[0].Value != 30.0 {
		t.Fatalf("items = %+v", got)
	}
	p.Stop()
	publish(35)
	if len(got) != 1 {
		t.Fatal("items after Stop")
	}
}

func TestPublisherBTAndWiFi(t *testing.T) {
	w := newWorld(t)
	pub := NewPublisher(w.btA, w.wifiA)
	item := cxt.Item{Type: cxt.TypeWind, Value: 8.2, Timestamp: w.clk.Now()}

	dBT, err := pub.Publish(item, PublishOptions{Transport: TransportBT})
	if err != nil {
		t.Fatal(err)
	}
	dWiFi, err := pub.Publish(item, PublishOptions{Transport: TransportWiFi})
	if err != nil {
		t.Fatal(err)
	}
	// Table 1: BT publish ≈ 140 ms ≫ WiFi tag publish ≈ 0.13 ms.
	if dBT < 500*dWiFi {
		t.Fatalf("BT publish %v not ≫ WiFi publish %v", dBT, dWiFi)
	}
	w.clk.Advance(time.Second)
	if svcs := w.btA.Services(); len(svcs) != 1 || svcs[0] != "wind" {
		t.Fatalf("BT services = %v", svcs)
	}
	if !w.wifiA.Tags().Has("wind") {
		t.Fatal("WiFi tag missing")
	}
	pub.Erase(cxt.TypeWind, TransportBT)
	pub.Erase(cxt.TypeWind, TransportWiFi)
	if len(w.btA.Services()) != 0 || w.wifiA.Tags().Has("wind") {
		t.Fatal("Erase left publications behind")
	}
}

func TestPublisherAuthenticatedAccess(t *testing.T) {
	w := newWorld(t)
	pub := NewPublisher(nil, w.wifiA)
	item := cxt.Item{Type: cxt.TypeLocation, Value: cxt.Fix{Lat: 60}, Timestamp: w.clk.Now()}
	if _, err := pub.Publish(item, PublishOptions{Transport: TransportWiFi, Mode: AuthenticatedAccess}); err == nil {
		t.Fatal("authenticated publish without key succeeded")
	}
	if _, err := pub.Publish(item, PublishOptions{
		Transport: TransportWiFi, Mode: AuthenticatedAccess, Key: "secret",
	}); err != nil {
		t.Fatal(err)
	}
	tag, err := w.wifiA.Tags().Read("location")
	if err != nil {
		t.Fatal(err)
	}
	locked, ok := tag.Value.(LockedItem)
	if !ok {
		t.Fatalf("tag value = %T", tag.Value)
	}
	if _, err := locked.Unlock("wrong"); !errors.Is(err, ErrBadKey) {
		t.Fatalf("Unlock(wrong) = %v", err)
	}
	got, err := locked.Unlock("secret")
	if err != nil || got.Type != cxt.TypeLocation {
		t.Fatalf("Unlock = %+v, %v", got, err)
	}
}

func TestPublisherMissingReference(t *testing.T) {
	pub := NewPublisher(nil, nil)
	item := cxt.Item{Type: cxt.TypeWind}
	if _, err := pub.Publish(item, PublishOptions{Transport: TransportBT}); !errors.Is(err, ErrNoSource) {
		t.Fatalf("BT err = %v", err)
	}
	if _, err := pub.Publish(item, PublishOptions{Transport: TransportWiFi}); !errors.Is(err, ErrNoSource) {
		t.Fatalf("WiFi err = %v", err)
	}
}

func TestAggregatorMean(t *testing.T) {
	clk := vclock.NewSimulator()
	var out []cxt.Item
	agg := NewAggregator(clk, 10*time.Second, MeanAggregate, func(it cxt.Item) { out = append(out, it) })
	defer agg.Stop()
	for _, v := range []float64{10, 20, 30} {
		agg.Offer(cxt.Item{Type: cxt.TypeTemperature, Value: v, Timestamp: clk.Now()})
	}
	if agg.Pending() != 3 {
		t.Fatalf("Pending = %d", agg.Pending())
	}
	clk.Advance(10 * time.Second)
	if len(out) != 1 || out[0].Value != 20.0 {
		t.Fatalf("out = %+v", out)
	}
	if out[0].Source.Kind != cxt.SourceAggregated {
		t.Fatalf("source = %+v", out[0].Source)
	}
	// Empty window: nothing emitted.
	clk.Advance(10 * time.Second)
	if len(out) != 1 {
		t.Fatalf("out = %d after empty flush", len(out))
	}
}

func TestAggregateFunctions(t *testing.T) {
	now := vclock.Epoch
	items := []cxt.Item{
		{Type: cxt.TypeWind, Value: 5.0, Timestamp: now},
		{Type: cxt.TypeWind, Value: 9.0, Timestamp: now.Add(time.Second)},
		{Type: cxt.TypeWind, Value: "gusty", Timestamp: now.Add(2 * time.Second)},
	}
	mean, ok := MeanAggregate(items, now)
	if !ok || mean.Value != 7.0 {
		t.Fatalf("mean = %+v, %v", mean, ok)
	}
	newest, ok := NewestAggregate(items, now)
	if !ok || newest.Value != "gusty" {
		t.Fatalf("newest = %+v", newest)
	}
	maxIt, ok := MaxAggregate(items, now)
	if !ok || maxIt.Value != 9.0 {
		t.Fatalf("max = %+v", maxIt)
	}
	if _, ok := MeanAggregate(nil, now); ok {
		t.Fatal("mean of nothing")
	}
	if _, ok := NewestAggregate(nil, now); ok {
		t.Fatal("newest of nothing")
	}
	if _, ok := MaxAggregate([]cxt.Item{{Value: "x"}}, now); ok {
		t.Fatal("max of non-numeric")
	}
}

func TestProviderStartAfterStop(t *testing.T) {
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
	if err := p.Start(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Start after Stop = %v", err)
	}
}

func TestUpdateQueryChangesFilter(t *testing.T) {
	w := newWorld(t)
	temp := 21.0
	w.thermometer(&temp)
	var got []cxt.Item
	p, err := NewLocal(LocalConfig{
		Clock:    w.clk,
		Query:    query.MustParse("SELECT temperature FROM intSensor DURATION 10 min EVERY 5 sec"),
		Sink:     func(it cxt.Item) { got = append(got, it) },
		Internal: w.internal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	w.clk.Advance(11 * time.Second)
	before := len(got)
	if before == 0 {
		t.Fatal("no items before update")
	}
	// Tighten the filter: the sensor's accuracy (0.2) now fails it.
	p.UpdateQuery(query.MustParse("SELECT temperature FROM intSensor WHERE accuracy<=0.1 DURATION 10 min EVERY 5 sec"))
	w.clk.Advance(time.Minute)
	if len(got) != before {
		t.Fatalf("items kept flowing after filter tightened: %d → %d", before, len(got))
	}
}

// UpdateQuery re-arms a periodic round whose EVERY changed, so its first
// tick fires one new period after the update, and leaves a round whose
// EVERY held alone.
func TestUpdateQueryFollowsEvery(t *testing.T) {
	w := newWorld(t)
	temp := 21.0
	w.thermometer(&temp)
	var at []time.Duration
	p, err := NewLocal(LocalConfig{
		Clock:    w.clk,
		Query:    query.MustParse("SELECT temperature FROM intSensor DURATION 10 min EVERY 30 sec"),
		Sink:     func(cxt.Item) { at = append(at, w.clk.Now().Sub(vclock.Epoch)) },
		Internal: w.internal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	w.clk.Advance(time.Second)
	p.UpdateQuery(query.MustParse("SELECT temperature FROM intSensor DURATION 10 min EVERY 10 sec"))
	w.clk.Advance(40 * time.Second)
	p.UpdateQuery(query.MustParse("SELECT temperature FROM intSensor WHERE accuracy<=0.5 DURATION 10 min EVERY 10 sec"))
	w.clk.Advance(15 * time.Second)
	p.UpdateQuery(query.MustParse("SELECT temperature FROM intSensor DURATION 10 min EVERY 30 sec"))
	w.clk.Advance(time.Minute)
	want := []time.Duration{11, 21, 31, 41, 51, 86, 116}
	for i := range want {
		want[i] *= time.Second
	}
	if !reflect.DeepEqual(at, want) {
		t.Fatalf("items at %v, want %v", at, want)
	}
	p.Stop()
}
