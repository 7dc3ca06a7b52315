package core

import (
	"errors"
	"testing"
	"time"

	"contory/internal/cxt"
	"contory/internal/fuego"
	"contory/internal/gps"
	"contory/internal/policy"
	"contory/internal/provider"
	"contory/internal/query"
	"contory/internal/radio"
	"contory/internal/refs"
	"contory/internal/simnet"
	"contory/internal/sm"
	"contory/internal/vclock"
)

// testClient records everything the middleware hands the application.
type testClient struct {
	items    []cxt.Item
	errs     []string
	decision bool
}

func (c *testClient) ReceiveCxtItem(it cxt.Item) { c.items = append(c.items, it) }
func (c *testClient) InformError(msg string)     { c.errs = append(c.errs, msg) }
func (c *testClient) MakeDecision(string) bool   { return c.decision }

// bed is a full testbed: phone (device under test) with GPS, a peer phone,
// a 2-hop WiFi line, and an infrastructure server with a context store.
type bed struct {
	clk     *vclock.Simulator
	nw      *simnet.Network
	plat    *sm.Platform
	srv     *fuego.Server
	dev     *Device
	peer    *Device
	factory *Factory
	gpsDev  *gps.Device
	store   []cxt.Item // infra-side stored items
}

func newBed(t *testing.T, opts ...Option) *bed {
	t.Helper()
	clk := vclock.NewSimulator()
	nw := simnet.New(clk)
	b := &bed{clk: clk, nw: nw}
	if _, err := nw.AddNode("infra", simnet.Position{}); err != nil {
		t.Fatal(err)
	}
	u := radio.NewUMTS(100)
	var err error
	b.srv, err = fuego.NewServer(nw, "infra", u)
	if err != nil {
		t.Fatal(err)
	}
	b.srv.HandleRequest(provider.InfraOpGetItem, func(r fuego.Request) (any, error) {
		iq, ok := r.Payload.(provider.InfraQuery)
		if !ok {
			return nil, errors.New("bad infra query")
		}
		var out []cxt.Item
		for i := len(b.store) - 1; i >= 0 && len(out) < maxInt(iq.MaxItems, 1); i-- {
			if b.store[i].Type == iq.Select {
				out = append(out, b.store[i])
			}
		}
		return out, nil
	})
	b.gpsDev, err = gps.NewDevice(nw, "bt-gps-1", cxt.Fix{Lat: 60.16, Lon: 24.93, SpeedKn: 5})
	if err != nil {
		t.Fatal(err)
	}
	b.plat = sm.NewPlatform(nw, 200)
	b.dev, err = NewDevice(DeviceConfig{
		Network: nw, ID: "phone", SMPlatform: b.plat,
		InfraServer: "infra", GPSDevice: "bt-gps-1", Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.peer, err = NewDevice(DeviceConfig{
		Network: nw, ID: "peer", SMPlatform: b.plat, InfraServer: "infra", Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// far: a second peer two WiFi hops from the phone (phone—peer—far).
	far, err := NewDevice(DeviceConfig{Network: nw, ID: "far", SMPlatform: b.plat, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_ = far
	links := []struct {
		a, b simnet.NodeID
		m    radio.Medium
	}{
		{"phone", "bt-gps-1", radio.MediumBT},
		{"phone", "peer", radio.MediumBT},
		{"phone", "peer", radio.MediumWiFi},
		{"peer", "far", radio.MediumWiFi},
		{"phone", "infra", radio.MediumUMTS},
		{"peer", "infra", radio.MediumUMTS},
	}
	for _, l := range links {
		if err := nw.Connect(l.a, l.b, l.m); err != nil {
			t.Fatal(err)
		}
	}
	b.factory = NewFactory(b.dev, opts...)
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// publishPeerTemp publishes a temperature item on the peer's tag space.
func (b *bed) publishPeerTemp(v float64) {
	b.peer.WiFi.PublishTag("temperature", cxt.Item{
		Type: cxt.TypeTemperature, Value: v, Timestamp: b.clk.Now(),
		Meta: cxt.Metadata{Accuracy: 0.2},
	}, 0)
}

func TestQueryViaAdHoc(t *testing.T) {
	b := newBed(t)
	b.publishPeerTemp(14.0)
	cli := &testClient{}
	q := query.MustParse("SELECT temperature FROM adHocNetwork(all,1) DURATION 2 min EVERY 20 sec")
	sub, err := b.factory.ProcessCxtQuery(q, cli)
	if err != nil {
		t.Fatal(err)
	}
	mech, err := sub.Mechanism()
	if err != nil || mech != MechanismAdHoc {
		t.Fatalf("mechanism = %v, %v", mech, err)
	}
	b.clk.Advance(90 * time.Second)
	if len(cli.items) < 2 {
		t.Fatalf("items = %d, want periodic deliveries", len(cli.items))
	}
	if cli.items[0].Value != 14.0 {
		t.Fatalf("item = %+v", cli.items[0])
	}
	// Items also land in the local repository.
	if got, ok := b.dev.Repo.Latest(cxt.TypeTemperature); !ok || got.Value != 14.0 {
		t.Fatalf("repo latest = %+v, %v", got, ok)
	}
	sub.Cancel()
	b.clk.Advance(time.Minute)
	after := len(cli.items)
	b.clk.Advance(time.Minute)
	if len(cli.items) != after {
		t.Fatal("deliveries after cancel")
	}
}

func TestQueryViaInfra(t *testing.T) {
	b := newBed(t)
	b.store = append(b.store, cxt.Item{Type: cxt.TypeWeather, Value: "sunny", Timestamp: b.clk.Now()})
	cli := &testClient{}
	q := query.MustParse("SELECT weather FROM extInfra DURATION 1 min")
	sub, err := b.factory.ProcessCxtQuery(q, cli)
	if err != nil {
		t.Fatal(err)
	}
	if mech, _ := sub.Mechanism(); mech != MechanismInfra {
		t.Fatalf("mechanism = %v", mech)
	}
	b.clk.Advance(30 * time.Second)
	if len(cli.items) != 1 || cli.items[0].Value != "sunny" {
		t.Fatalf("items = %+v", cli.items)
	}
}

func TestQueryViaLocalGPS(t *testing.T) {
	b := newBed(t)
	cli := &testClient{}
	q := query.MustParse("SELECT location FROM intSensor DURATION 1 min EVERY 5 sec")
	sub, err := b.factory.ProcessCxtQuery(q, cli)
	if err != nil {
		t.Fatal(err)
	}
	if mech, _ := sub.Mechanism(); mech != MechanismLocal {
		t.Fatalf("mechanism = %v", mech)
	}
	b.clk.Advance(30 * time.Second)
	if len(cli.items) < 4 {
		t.Fatalf("items = %d", len(cli.items))
	}
	if _, ok := cli.items[0].Value.(cxt.Fix); !ok {
		t.Fatalf("value type %T", cli.items[0].Value)
	}
}

func TestAutoSelectsLocalFirst(t *testing.T) {
	b := newBed(t)
	temp := 20.0
	b.dev.Internal.Register(refs.FuncSensor{
		SensorName: "thermo", CxtType: cxt.TypeTemperature,
		ReadFunc: func(now time.Time) (cxt.Item, error) {
			return cxt.Item{Type: cxt.TypeTemperature, Value: temp, Timestamp: now}, nil
		},
	})
	cli := &testClient{}
	sub, err := b.factory.ProcessCxtQuery(
		query.MustParse("SELECT temperature DURATION 1 min EVERY 10 sec"), cli)
	if err != nil {
		t.Fatal(err)
	}
	if mech, _ := sub.Mechanism(); mech != MechanismLocal {
		t.Fatalf("auto mechanism = %v, want local", mech)
	}
}

func TestAutoFallsBackToAdHoc(t *testing.T) {
	b := newBed(t)
	// No integrated temperature sensor: auto must pick the ad hoc network.
	b.publishPeerTemp(16.0)
	cli := &testClient{}
	sub, err := b.factory.ProcessCxtQuery(
		query.MustParse("SELECT temperature DURATION 1 min EVERY 10 sec"), cli)
	if err != nil {
		t.Fatal(err)
	}
	if mech, _ := sub.Mechanism(); mech != MechanismAdHoc {
		t.Fatalf("auto mechanism = %v, want adHocNetwork", mech)
	}
	b.clk.Advance(45 * time.Second)
	if len(cli.items) == 0 {
		t.Fatal("no deliveries")
	}
}

func TestQueryValidationErrors(t *testing.T) {
	b := newBed(t)
	cli := &testClient{}
	if _, err := b.factory.ProcessCxtQuery(&query.Query{Select: "x"}, cli); err == nil {
		t.Fatal("invalid query accepted")
	}
	q := query.MustParse("SELECT temperature DURATION 1 min")
	if _, err := b.factory.ProcessCxtQuery(q, nil); !errors.Is(err, ErrNilClient) {
		t.Fatalf("nil client = %v", err)
	}
	if _, err := b.factory.QueryMechanism("q-404"); !errors.Is(err, ErrUnknownQuery) {
		t.Fatalf("unknown query = %v", err)
	}
}

func TestFacadeMerging(t *testing.T) {
	b := newBed(t)
	b.publishPeerTemp(15.0)
	c1, c2 := &testClient{}, &testClient{}
	q1 := query.MustParse("SELECT temperature FROM adHocNetwork(all,1) FRESHNESS 10 sec DURATION 1 hour EVERY 15 sec")
	q2 := query.MustParse("SELECT temperature FROM adHocNetwork(all,1) FRESHNESS 20 sec DURATION 2 hour EVERY 30 sec")
	if _, err := b.factory.ProcessCxtQuery(q1, c1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.factory.ProcessCxtQuery(q2, c2); err != nil {
		t.Fatal(err)
	}
	fac := b.factory.Facade(MechanismAdHoc)
	created, merged := fac.Stats()
	if created != 1 || merged != 1 {
		t.Fatalf("facade stats = %d created / %d merged, want 1/1", created, merged)
	}
	if fac.ActiveProviders() != 1 {
		t.Fatalf("providers = %d, want 1 (merged)", fac.ActiveProviders())
	}
	// Both clients receive items; republish fresh data so FRESHNESS holds.
	for i := 0; i < 8; i++ {
		b.publishPeerTemp(15.0 + float64(i))
		b.clk.Advance(15 * time.Second)
	}
	if len(c1.items) == 0 || len(c2.items) == 0 {
		t.Fatalf("deliveries = %d/%d, want both clients served", len(c1.items), len(c2.items))
	}
	// q1 (15 s period) should see at least as many items as q2 (30 s).
	if len(c1.items) < len(c2.items) {
		t.Fatalf("c1=%d < c2=%d", len(c1.items), len(c2.items))
	}
}

func TestFacadeMergeDisabledAblation(t *testing.T) {
	b := newBed(t, WithMerging(false))
	b.publishPeerTemp(15.0)
	for i := 0; i < 3; i++ {
		q := query.MustParse("SELECT temperature FROM adHocNetwork(all,1) DURATION 1 hour EVERY 30 sec")
		if _, err := b.factory.ProcessCxtQuery(q, &testClient{}); err != nil {
			t.Fatal(err)
		}
	}
	fac := b.factory.Facade(MechanismAdHoc)
	if fac.ActiveProviders() != 3 {
		t.Fatalf("providers = %d, want 3 without merging", fac.ActiveProviders())
	}
}

func TestCancelRenarrowsMergedQuery(t *testing.T) {
	b := newBed(t)
	b.publishPeerTemp(15.0)
	q1 := query.MustParse("SELECT temperature FROM adHocNetwork(all,1) DURATION 1 hour EVERY 15 sec")
	q2 := query.MustParse("SELECT temperature FROM adHocNetwork(all,2) DURATION 2 hour EVERY 60 sec")
	sub1, err := b.factory.ProcessCxtQuery(q1, &testClient{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.factory.ProcessCxtQuery(q2, &testClient{}); err != nil {
		t.Fatal(err)
	}
	fac := b.factory.Facade(MechanismAdHoc)
	if fac.ActiveProviders() != 1 {
		t.Fatalf("providers = %d", fac.ActiveProviders())
	}
	sub1.Cancel()
	// Provider survives for q2.
	if fac.ActiveProviders() != 1 {
		t.Fatalf("providers after cancel = %d", fac.ActiveProviders())
	}
	if got := fac.Queries(); len(got) != 1 {
		t.Fatalf("queries = %v", got)
	}
}

func TestSampleBudgetCompletesQuery(t *testing.T) {
	b := newBed(t)
	cli := &testClient{}
	q := query.MustParse("SELECT location FROM intSensor DURATION 3 samples EVERY 2 sec")
	sub, err := b.factory.ProcessCxtQuery(q, cli)
	if err != nil {
		t.Fatal(err)
	}
	b.clk.Advance(time.Minute)
	if len(cli.items) != 3 {
		t.Fatalf("items = %d, want exactly 3", len(cli.items))
	}
	if _, err := sub.Mechanism(); !errors.Is(err, ErrUnknownQuery) {
		t.Fatal("query still active after sample budget")
	}
}

func TestDurationExpiryRemovesQuery(t *testing.T) {
	b := newBed(t)
	cli := &testClient{}
	q := query.MustParse("SELECT location FROM intSensor DURATION 30 sec EVERY 5 sec")
	sub, err := b.factory.ProcessCxtQuery(q, cli)
	if err != nil {
		t.Fatal(err)
	}
	b.clk.Advance(2 * time.Minute)
	if _, err := sub.Mechanism(); !errors.Is(err, ErrUnknownQuery) {
		t.Fatal("query still active after its DURATION")
	}
	if len(b.factory.ActiveQueries()) != 0 {
		t.Fatalf("active = %v", b.factory.ActiveQueries())
	}
}

// TestGPSFailoverFig5 reproduces the Fig. 5 scenario: location provisioning
// from a BT-GPS; the GPS dies; Contory switches to ad hoc provisioning;
// the GPS returns; Contory switches back.
func TestGPSFailoverFig5(t *testing.T) {
	b := newBed(t)
	// The peer publishes its location so ad hoc provisioning has a source.
	b.peer.WiFi.PublishTag("location", cxt.Item{
		Type: cxt.TypeLocation, Value: cxt.Fix{Lat: 60.17, Lon: 24.94},
		Timestamp: b.clk.Now(), Lifetime: time.Hour,
	}, 0)
	cli := &testClient{}
	// FROM unspecified: the middleware may switch strategies transparently.
	q := query.MustParse("SELECT location DURATION 20 min EVERY 5 sec")
	sub, err := b.factory.ProcessCxtQuery(q, cli)
	if err != nil {
		t.Fatal(err)
	}
	if mech, _ := sub.Mechanism(); mech != MechanismLocal {
		t.Fatalf("initial mechanism = %v", mech)
	}
	// Phase 1: GPS healthy for 155 s.
	b.clk.Advance(155 * time.Second)
	phase1 := len(cli.items)
	if phase1 == 0 {
		t.Fatal("no GPS deliveries in phase 1")
	}
	// GPS switched off (the paper kills it at t=155 s).
	b.gpsDev.SetFailed(true)
	b.clk.Advance(time.Minute)
	if mech, _ := sub.Mechanism(); mech != MechanismAdHoc {
		t.Fatalf("mechanism after GPS failure = %v, want adHocNetwork", mech)
	}
	sw := b.factory.Switches()
	if len(sw) != 1 || sw[0].From != MechanismLocal || sw[0].To != MechanismAdHoc {
		t.Fatalf("switches = %+v", sw)
	}
	// Ad hoc provisioning keeps location data flowing.
	b.clk.Advance(2 * time.Minute)
	phase2 := len(cli.items)
	if phase2 <= phase1 {
		t.Fatal("no deliveries from ad hoc provisioning after failover")
	}
	// GPS returns; the periodic BT discovery probe finds it and Contory
	// switches back.
	b.gpsDev.SetFailed(false)
	b.clk.Advance(3 * time.Minute)
	if mech, _ := sub.Mechanism(); mech != MechanismLocal {
		t.Fatalf("mechanism after GPS recovery = %v, want intSensor", mech)
	}
	sw = b.factory.Switches()
	if len(sw) != 2 || sw[1].To != MechanismLocal {
		t.Fatalf("switches = %+v", sw)
	}
	b.clk.Advance(time.Minute)
	if len(cli.items) <= phase2 {
		t.Fatal("no deliveries after switching back to GPS")
	}
}

func TestFailoverDisabledAblation(t *testing.T) {
	b := newBed(t, WithFailover(false))
	cli := &testClient{}
	q := query.MustParse("SELECT location DURATION 20 min EVERY 5 sec")
	sub, err := b.factory.ProcessCxtQuery(q, cli)
	if err != nil {
		t.Fatal(err)
	}
	b.clk.Advance(30 * time.Second)
	b.gpsDev.SetFailed(true)
	b.clk.Advance(2 * time.Minute)
	if mech, _ := sub.Mechanism(); mech != MechanismLocal {
		t.Fatalf("mechanism = %v, want stuck on intSensor without failover", mech)
	}
	if len(b.factory.Switches()) != 0 {
		t.Fatalf("switches = %v", b.factory.Switches())
	}
}

func TestExplicitSourceDoesNotFailover(t *testing.T) {
	b := newBed(t)
	cli := &testClient{}
	q := query.MustParse("SELECT location FROM intSensor DURATION 20 min EVERY 5 sec")
	sub, err := b.factory.ProcessCxtQuery(q, cli)
	if err != nil {
		t.Fatal(err)
	}
	b.clk.Advance(10 * time.Second)
	b.gpsDev.SetFailed(true)
	b.clk.Advance(time.Minute)
	if mech, _ := sub.Mechanism(); mech != MechanismLocal {
		t.Fatalf("explicit FROM intSensor switched to %v", mech)
	}
}

func TestReducePowerPolicy(t *testing.T) {
	b := newBed(t)
	b.store = append(b.store, cxt.Item{Type: cxt.TypeWeather, Value: "rain", Timestamp: b.clk.Now()})
	cli := &testClient{}
	// An explicit extInfra periodic query: high energy consumer.
	q := query.MustParse("SELECT weather FROM extInfra DURATION 1 hour EVERY 1 min")
	sub, err := b.factory.ProcessCxtQuery(q, cli)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.factory.AddControlPolicy(policy.Rule{
		Name:      "low-battery",
		Condition: policy.Cond("batteryLevel", policy.OpEqual, "low"),
		Action:    policy.ReducePower,
	}); err != nil {
		t.Fatal(err)
	}
	b.clk.Advance(90 * time.Second)
	// Battery drops: the rule fires; the extInfra-only query terminates.
	b.dev.Monitor.SetBattery(0.1)
	b.clk.Advance(time.Second)
	if _, err := sub.Mechanism(); !errors.Is(err, ErrUnknownQuery) {
		t.Fatal("high-energy query survived reducePower")
	}
	if len(cli.errs) == 0 {
		t.Fatal("client not informed of policy termination")
	}
}

func TestReduceMemoryPolicy(t *testing.T) {
	b := newBed(t)
	for i := 0; i < 10; i++ {
		b.dev.Repo.Store(cxt.Item{Type: cxt.TypeWind, Value: float64(i), Timestamp: b.clk.Now()})
	}
	if err := b.factory.AddControlPolicy(policy.Rule{
		Name:      "mem",
		Condition: policy.Cond("memoryLevel", policy.OpEqual, "low"),
		Action:    policy.ReduceMemory,
	}); err != nil {
		t.Fatal(err)
	}
	b.dev.Monitor.SetMemory(9<<20, 9<<20) // memory exhausted
	if b.dev.Repo.Len(cxt.TypeWind) != 0 {
		t.Fatal("repository not cleared by reduceMemory")
	}
}

func TestReduceLoadPolicy(t *testing.T) {
	b := newBed(t)
	c1, c2 := &testClient{}, &testClient{}
	sub1, err := b.factory.ProcessCxtQuery(
		query.MustParse("SELECT location FROM intSensor DURATION 1 hour EVERY 10 sec"), c1)
	if err != nil {
		t.Fatal(err)
	}
	b.clk.Advance(time.Second)
	sub2, err := b.factory.ProcessCxtQuery(
		query.MustParse("SELECT speed FROM intSensor DURATION 1 hour EVERY 10 sec"), c2)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.factory.AddControlPolicy(policy.Rule{
		Name:      "overload",
		Condition: policy.Cond("activeQueries", policy.OpMoreThan, "1"),
		Action:    policy.ReduceLoad,
	}); err != nil {
		t.Fatal(err)
	}
	b.factory.EvaluatePolicies()
	// Shedding is by measured energy cost per delivered item: sub1 has
	// accrued a full second more of device energy at the same delivery
	// count, so it is the costliest query — not newest-submitted sub2.
	if _, err := sub1.Mechanism(); !errors.Is(err, ErrUnknownQuery) {
		t.Fatal("costliest query survived reduceLoad")
	}
	if _, err := sub2.Mechanism(); err != nil {
		t.Fatal("cheaper query was terminated instead")
	}
	if len(c1.errs) == 0 {
		t.Fatal("client not informed")
	}
}

func TestPublishRequiresRegistration(t *testing.T) {
	b := newBed(t)
	cli := &testClient{}
	item := cxt.Item{Type: cxt.TypeWind, Value: 7.0}
	err := b.factory.PublishCxtItem(cli, item, provider.PublishOptions{Transport: provider.TransportWiFi})
	if !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("unregistered publish = %v", err)
	}
	if err := b.factory.RegisterCxtServer(cli); err != nil {
		t.Fatal(err)
	}
	if err := b.factory.PublishCxtItem(cli, item, provider.PublishOptions{Transport: provider.TransportWiFi}); err != nil {
		t.Fatal(err)
	}
	if !b.dev.WiFi.Tags().Has("wind") {
		t.Fatal("item not published")
	}
	b.factory.EraseCxtItem(cxt.TypeWind, provider.TransportWiFi)
	if b.dev.WiFi.Tags().Has("wind") {
		t.Fatal("item not erased")
	}
	b.factory.DeregisterCxtServer(cli)
	if err := b.factory.PublishCxtItem(cli, item, provider.PublishOptions{Transport: provider.TransportWiFi}); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("post-deregister publish = %v", err)
	}
	if err := b.factory.RegisterCxtServer(nil); !errors.Is(err, ErrNilClient) {
		t.Fatalf("register nil = %v", err)
	}
}

func TestStoreCxtItemReachesInfra(t *testing.T) {
	b := newBed(t)
	stored := 0
	// Count store events arriving at the infrastructure broker.
	b.srv.HandleRequest(InfraOpStoreItem, func(fuego.Request) (any, error) { return nil, nil })
	before := b.srv.Events()
	b.factory.StoreCxtItem(cxt.Item{Type: cxt.TypeLocation, Value: cxt.Fix{Lat: 60}})
	b.clk.Advance(10 * time.Second)
	stored = b.srv.Events() - before
	if stored != 1 {
		t.Fatalf("infra store events = %d, want 1", stored)
	}
	// Locally stored too.
	if _, ok := b.dev.Repo.Latest(cxt.TypeLocation); !ok {
		t.Fatal("item not stored locally")
	}
}

func TestCloseStopsEverything(t *testing.T) {
	b := newBed(t)
	cli := &testClient{}
	if _, err := b.factory.ProcessCxtQuery(
		query.MustParse("SELECT location FROM intSensor DURATION 1 hour EVERY 5 sec"), cli); err != nil {
		t.Fatal(err)
	}
	b.clk.Advance(20 * time.Second)
	b.factory.Close()
	n := len(cli.items)
	b.clk.Advance(time.Minute)
	if len(cli.items) != n {
		t.Fatal("deliveries after Close")
	}
	if len(b.factory.ActiveQueries()) != 0 {
		t.Fatal("queries survive Close")
	}
}

func TestMechanismString(t *testing.T) {
	tests := map[Mechanism]string{
		MechanismLocal: "intSensor",
		MechanismAdHoc: "adHocNetwork",
		MechanismInfra: "extInfra",
	}
	for m, want := range tests {
		if got := m.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

func TestDeviceBaselinePower(t *testing.T) {
	b := newBed(t)
	// GSM off, display off, back-light off, BT scanning, Contory on:
	// 10.11 mW (§6.1).
	p := float64(b.dev.Node.Timeline().Power())
	if p < 10.0 || p > 10.2 {
		t.Fatalf("baseline power = %v mW, want ≈ 10.11 mW", p)
	}
	b.dev.SetBacklight(true)
	p = float64(b.dev.Node.Timeline().Power())
	// + display (8.60) + backlight (61.85) = 80.56.
	if p < 80.0 || p > 81.0 {
		t.Fatalf("backlight power = %v mW", p)
	}
	b.dev.SetDisplay(false)
	p = float64(b.dev.Node.Timeline().Power())
	if p > 10.2 {
		t.Fatalf("power after display off = %v mW", p)
	}
}
