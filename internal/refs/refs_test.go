package refs

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"contory/internal/cxt"
	"contory/internal/fuego"
	"contory/internal/gps"
	"contory/internal/metrics"
	"contory/internal/monitor"
	"contory/internal/radio"
	"contory/internal/simnet"
	"contory/internal/sm"
	"contory/internal/vclock"
)

// rig is a two-phone BT testbed with a GPS device and monitors.
type rig struct {
	clk    *vclock.Simulator
	nw     *simnet.Network
	mon    map[simnet.NodeID]*monitor.Monitor
	btA    *BTReference
	btB    *BTReference
	gpsDev *gps.Device
}

func newRig(t *testing.T) *rig {
	t.Helper()
	clk := vclock.NewSimulator()
	nw := simnet.New(clk)
	for _, id := range []simnet.NodeID{"a", "b"} {
		if _, err := nw.AddNode(id, simnet.Position{}); err != nil {
			t.Fatal(err)
		}
	}
	dev, err := gps.NewDevice(nw, "bt-gps-1", cxt.Fix{Lat: 60.16, Lon: 24.93, SpeedKn: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]simnet.NodeID{{"a", "b"}, {"a", "bt-gps-1"}} {
		if err := nw.Connect(pair[0], pair[1], radio.MediumBT); err != nil {
			t.Fatal(err)
		}
	}
	r := &rig{clk: clk, nw: nw, gpsDev: dev, mon: map[simnet.NodeID]*monitor.Monitor{
		"a": monitor.New(clk), "b": monitor.New(clk),
	}}
	r.btA, err = NewBTReference(nw, "a", radio.NewBT(1), r.mon["a"])
	if err != nil {
		t.Fatal(err)
	}
	r.btB, err = NewBTReference(nw, "b", radio.NewBT(2), r.mon["b"])
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBTReferenceUnknownNode(t *testing.T) {
	clk := vclock.NewSimulator()
	nw := simnet.New(clk)
	if _, err := NewBTReference(nw, "ghost", radio.NewBT(1), nil); err == nil {
		t.Fatal("NewBTReference(ghost) succeeded")
	}
}

func TestBTDiscoverTakesThirteenSeconds(t *testing.T) {
	r := newRig(t)
	var found []simnet.NodeID
	var at time.Time
	r.btA.Discover(func(ids []simnet.NodeID) { found, at = ids, r.clk.Now() })
	r.clk.Advance(time.Minute)
	if len(found) != 2 || found[0] != "b" || found[1] != "bt-gps-1" {
		t.Fatalf("found = %v", found)
	}
	d := at.Sub(vclock.Epoch)
	if d < 11*time.Second || d > 15*time.Second {
		t.Fatalf("discovery took %v, want ≈ 13 s", d)
	}
}

func TestBTServiceRegistrationAndDiscovery(t *testing.T) {
	r := newRig(t)
	item := cxt.Item{Type: cxt.TypeTemperature, Value: 14.0, Timestamp: r.clk.Now()}
	lat := r.btB.RegisterService(ServiceRecord{Name: "temperature", Item: item}, nil)
	if lat < 100*time.Millisecond || lat > 200*time.Millisecond {
		t.Fatalf("registration latency = %v, want ≈ 140 ms", lat)
	}
	r.clk.Advance(time.Minute)
	if svcs := r.btB.Services(); len(svcs) != 1 || svcs[0] != "temperature" {
		t.Fatalf("Services = %v", svcs)
	}
	var names []string
	var derr error
	r.btA.DiscoverServices("b", func(ns []string, err error) { names, derr = ns, err })
	r.clk.Advance(time.Minute)
	if derr != nil || len(names) != 1 || names[0] != "temperature" {
		t.Fatalf("DiscoverServices = %v, %v", names, derr)
	}
	r.btB.UnregisterService("temperature")
	if len(r.btB.Services()) != 0 {
		t.Fatal("service not unregistered")
	}
}

func TestBTGetItem(t *testing.T) {
	r := newRig(t)
	item := cxt.Item{Type: cxt.TypeTemperature, Value: 14.0, Timestamp: r.clk.Now()}
	r.btB.RegisterService(ServiceRecord{Name: "temperature", Item: item}, nil)
	r.clk.Advance(time.Minute)
	var got cxt.Item
	var gerr error
	start := r.clk.Now()
	var at time.Time
	r.btA.Get("b", "temperature", func(it cxt.Item, err error) { got, gerr, at = it, err, r.clk.Now() })
	r.clk.Advance(time.Minute)
	if gerr != nil || got.Value != 14.0 {
		t.Fatalf("Get = %+v, %v", got, gerr)
	}
	if rtt := at.Sub(start); rtt > 200*time.Millisecond {
		t.Fatalf("BT get rtt = %v, want tens of ms", rtt)
	}
}

func TestBTGetMissingService(t *testing.T) {
	r := newRig(t)
	var gerr error
	r.btA.Get("b", "nothing", func(_ cxt.Item, err error) { gerr = err })
	r.clk.Advance(time.Minute)
	if gerr == nil {
		t.Fatal("Get(missing) succeeded")
	}
}

func TestBTGetTimeoutReportsFailure(t *testing.T) {
	r := newRig(t)
	r.btB.RegisterService(ServiceRecord{Name: "temperature", Item: cxt.Item{Type: cxt.TypeTemperature}}, nil)
	r.clk.Advance(time.Minute)
	r.nw.FailLink("a", "b", radio.MediumBT)
	var gerr error
	r.btA.Get("b", "temperature", func(_ cxt.Item, err error) { gerr = err })
	r.clk.Advance(time.Minute)
	if gerr == nil {
		t.Fatal("Get over failed link succeeded")
	}
	if !r.mon["a"].Failed("b") {
		t.Fatal("failure not reported to monitor")
	}
}

func TestGPSStreamAndWatchdog(t *testing.T) {
	r := newRig(t)
	var fixes []cxt.Fix
	failures := 0
	disconnect, err := r.btA.ConnectGPS("bt-gps-1", func(f cxt.Fix) { fixes = append(fixes, f) }, func() { failures++ })
	if err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(5 * time.Second)
	if len(fixes) < 4 {
		t.Fatalf("fixes = %d, want ≈ 5 at 1 Hz", len(fixes))
	}
	if math.Abs(fixes[0].Lat-60.16) > 1e-3 {
		t.Fatalf("fix = %+v", fixes[0])
	}
	// GPS dies: watchdog reports within ~3.5 s.
	r.gpsDev.SetFailed(true)
	r.clk.Advance(5 * time.Second)
	if failures != 1 {
		t.Fatalf("failures = %d, want 1", failures)
	}
	if !r.mon["a"].Failed("bt-gps-1") {
		t.Fatal("monitor not notified of GPS loss")
	}
	// GPS returns: stream resumes and the failure clears.
	before := len(fixes)
	r.gpsDev.SetFailed(false)
	r.clk.Advance(3 * time.Second)
	if len(fixes) <= before {
		t.Fatal("stream did not resume")
	}
	if r.mon["a"].Failed("bt-gps-1") {
		t.Fatal("monitor failure not cleared on recovery")
	}
	disconnect()
	r.clk.Advance(time.Second)
	after := len(fixes)
	r.clk.Advance(5 * time.Second)
	if len(fixes) != after {
		t.Fatal("fixes after disconnect")
	}
}

// TestGPSConsumersShareStream: two consumers of one GPS device share the
// phone's stream. Both get every fix, in connection order, and the phone
// pays each burst's energy once. Detaching one (twice) leaves the other
// streaming with no false failure; a stall fails both once; the last
// detach stops the device's stream. A consumer cannot join a stream whose
// device is no longer linked.
func TestGPSConsumersShareStream(t *testing.T) {
	r := newRig(t)
	var order []string
	var first, second []cxt.Fix
	var failures [2]int
	off1, err := r.btA.ConnectGPS("bt-gps-1", func(f cxt.Fix) {
		first = append(first, f)
		order = append(order, "first")
	}, func() { failures[0]++ })
	if err != nil {
		t.Fatal(err)
	}
	off2, err := r.btA.ConnectGPS("bt-gps-1", func(f cxt.Fix) {
		second = append(second, f)
		order = append(order, "second")
	}, func() { failures[1]++ })
	if err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(5 * time.Second)
	if len(first) < 4 || !reflect.DeepEqual(first, second) {
		t.Fatalf("fixes: first %d, second %d, want the same ≈ 5", len(first), len(second))
	}
	for i := 0; i < len(order); i += 2 {
		if order[i] != "first" || order[i+1] != "second" {
			t.Fatalf("dispatch order %v, want connection order", order)
		}
	}
	perBurst := float64(r.btA.Node().Timeline().WindowEnergy("bt-gps-sample")) / float64(len(first))
	if perBurst < 0.40 || perBurst > 0.45 {
		t.Fatalf("energy per burst = %v J, want ≈ 0.422 J once, not per consumer", perBurst)
	}

	off1()
	off1()
	before := len(second)
	r.clk.Advance(10 * time.Second)
	if len(second) < before+9 {
		t.Fatalf("remaining consumer got %d fixes in 10 s after the other detached", len(second)-before)
	}
	if failures != [2]int{} || r.mon["a"].Failed("bt-gps-1") {
		t.Fatalf("healthy stream reported a failure: %v", failures)
	}

	r.gpsDev.SetFailed(true)
	r.clk.Advance(5 * time.Second)
	if failures != [2]int{0, 1} || !r.mon["a"].Failed("bt-gps-1") {
		t.Fatalf("failures = %v after a stall, want [0 1] and a monitor report", failures)
	}
	if _, err := r.btA.ConnectGPS("bt-gps-1", nil, nil); !errors.Is(err, simnet.ErrNotLinked) {
		t.Fatalf("joining a stream of a dead device: %v, want ErrNotLinked", err)
	}
	r.gpsDev.SetFailed(false)
	r.clk.Advance(2 * time.Second)
	if r.mon["a"].Failed("bt-gps-1") {
		t.Fatal("recovered stream still reported failed")
	}

	off2()
	r.clk.Advance(time.Second)
	delivered, _ := r.nw.Stats()
	after := len(second)
	r.clk.Advance(5 * time.Second)
	if len(second) != after {
		t.Fatal("fixes after the last consumer detached")
	}
	if now, _ := r.nw.Stats(); now != delivered {
		t.Fatalf("device still streaming after the last detach: %d frames", now-delivered)
	}
}

func TestGPSPerSampleEnergy(t *testing.T) {
	r := newRig(t)
	samples := 0
	if _, err := r.btA.ConnectGPS("bt-gps-1", func(cxt.Fix) { samples++ }, nil); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(10 * time.Second)
	if samples == 0 {
		t.Fatal("no samples received")
	}
	e := float64(r.btA.Node().Timeline().WindowEnergy("bt-gps-sample"))
	// Table 2, intSensor periodic: ≈ 0.422 J per sample.
	perSample := e / float64(samples)
	if perSample < 0.40 || perSample > 0.45 {
		t.Fatalf("per-sample energy = %v J over %d samples, want ≈ 0.422 J", perSample, samples)
	}
}

func TestInternalReference(t *testing.T) {
	clk := vclock.NewSimulator()
	mon := monitor.New(clk)
	ir := NewInternalReference(clk, mon)
	temp := 21.5
	ir.Register(FuncSensor{
		SensorName: "thermometer-0",
		CxtType:    cxt.TypeTemperature,
		ReadFunc: func(now time.Time) (cxt.Item, error) {
			return cxt.Item{Type: cxt.TypeTemperature, Value: temp, Timestamp: now}, nil
		},
	})
	if got := ir.Sensors(); len(got) != 1 || got[0] != "thermometer-0" {
		t.Fatalf("Sensors = %v", got)
	}
	it, err := ir.Read("thermometer-0")
	if err != nil || it.Value != 21.5 {
		t.Fatalf("Read = %+v, %v", it, err)
	}
	if it.Source.Kind != cxt.SourceSensor || it.Source.Address != "thermometer-0" {
		t.Fatalf("Source = %+v", it.Source)
	}
	if _, err := ir.Read("missing"); !errors.Is(err, ErrNoSensor) {
		t.Fatalf("Read(missing) = %v", err)
	}
	s, ok := ir.ByType(cxt.TypeTemperature)
	if !ok || s.Name() != "thermometer-0" {
		t.Fatalf("ByType = %v, %v", s, ok)
	}
	if _, ok := ir.ByType(cxt.TypeWind); ok {
		t.Fatal("ByType(wind) found a sensor")
	}
}

// Sensors stay in name order whatever the registration order, the first
// by name wins ByType, re-registering a name replaces that sensor, and
// ByType allocates nothing.
func TestInternalReferenceSortedLookup(t *testing.T) {
	clk := vclock.NewSimulator()
	ir := NewInternalReference(clk, nil)
	sensor := func(name string, typ cxt.Type) FuncSensor {
		return FuncSensor{SensorName: name, CxtType: typ}
	}
	ir.Register(sensor("thermo-c", cxt.TypeTemperature))
	ir.Register(sensor("thermo-a", cxt.TypeTemperature))
	ir.Register(sensor("anemo", cxt.TypeWind))
	ir.Register(sensor("thermo-b", cxt.TypeTemperature))
	if s, ok := ir.ByType(cxt.TypeTemperature); !ok || s.Name() != "thermo-a" {
		t.Fatalf("ByType(temperature) = %v, %v, want thermo-a", s, ok)
	}
	ir.Register(sensor("thermo-a", cxt.TypeHumidity))
	if got, want := ir.Sensors(), []string{"anemo", "thermo-a", "thermo-b", "thermo-c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Sensors = %v, want %v", got, want)
	}
	if s, ok := ir.ByType(cxt.TypeTemperature); !ok || s.Name() != "thermo-b" {
		t.Fatalf("ByType(temperature) after replace = %v, %v, want thermo-b", s, ok)
	}
	if s, ok := ir.ByType(cxt.TypeHumidity); !ok || s.Name() != "thermo-a" {
		t.Fatalf("ByType(humidity) = %v, %v, want the replaced thermo-a", s, ok)
	}
	if got := testing.AllocsPerRun(200, func() { ir.ByType(cxt.TypeTemperature) }); got != 0 {
		t.Fatalf("ByType allocates %v times, want 0", got)
	}
}

func TestInternalReferenceFailureReporting(t *testing.T) {
	clk := vclock.NewSimulator()
	mon := monitor.New(clk)
	ir := NewInternalReference(clk, mon)
	broken := true
	ir.Register(FuncSensor{
		SensorName: "anemometer",
		CxtType:    cxt.TypeWind,
		ReadFunc: func(now time.Time) (cxt.Item, error) {
			if broken {
				return cxt.Item{}, errors.New("stuck vane")
			}
			return cxt.Item{Type: cxt.TypeWind, Value: 8.0, Timestamp: now}, nil
		},
	})
	if _, err := ir.Read("anemometer"); err == nil {
		t.Fatal("broken sensor read succeeded")
	}
	if !mon.Failed("anemometer") {
		t.Fatal("failure not reported")
	}
	broken = false
	if _, err := ir.Read("anemometer"); err != nil {
		t.Fatal(err)
	}
	if mon.Failed("anemometer") {
		t.Fatal("recovery not reported")
	}
}

// wifiRig builds a 3-node WiFi line with WiFi references.
func wifiRig(t *testing.T) (*vclock.Simulator, *simnet.Network, *sm.Platform, *WiFiReference, *WiFiReference) {
	t.Helper()
	clk := vclock.NewSimulator()
	nw := simnet.New(clk)
	for _, id := range []simnet.NodeID{"a", "b", "c"} {
		if _, err := nw.AddNode(id, simnet.Position{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, pair := range [][2]simnet.NodeID{{"a", "b"}, {"b", "c"}} {
		if err := nw.Connect(pair[0], pair[1], radio.MediumWiFi); err != nil {
			t.Fatal(err)
		}
	}
	p := sm.NewPlatform(nw, 3)
	wa, err := NewWiFiReference(p, "a", radio.NewWiFi(4), monitor.New(clk))
	if err != nil {
		t.Fatal(err)
	}
	wc, err := NewWiFiReference(p, "c", radio.NewWiFi(5), monitor.New(clk))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Install("b", sm.Admission{}); err != nil {
		t.Fatal(err)
	}
	return clk, nw, p, wa, wc
}

func TestWiFiPublishAndQuery(t *testing.T) {
	clk, _, _, wa, wc := wifiRig(t)
	wc.PublishTag("temperature", 19.5, 0)
	if !wc.Tags().Has("temperature") {
		t.Fatal("tag not published")
	}
	var results []sm.Result
	var qerr error
	start := clk.Now()
	var doneAt time.Time
	wa.Query(sm.FinderSpec{TagName: "temperature", MaxHops: 2}, func(rs []sm.Result, err error) {
		results, qerr, doneAt = rs, err, clk.Now()
	})
	clk.Run(0)
	if qerr != nil || len(results) != 1 || results[0].Value != 19.5 {
		t.Fatalf("Query = %+v, %v", results, qerr)
	}
	// First query pays route build (≈ 2×) plus the query: ≈ 3× 1422 ms.
	first := doneAt.Sub(start)
	if first < 3*time.Second || first > 6*time.Second {
		t.Fatalf("first query latency = %v, want ≈ 4.3 s (route build + query)", first)
	}
	// Second query skips route building.
	start = clk.Now()
	wa.Query(sm.FinderSpec{TagName: "temperature", MaxHops: 2}, func(rs []sm.Result, err error) {
		doneAt = clk.Now()
	})
	clk.Run(0)
	second := doneAt.Sub(start)
	if second > 2*time.Second {
		t.Fatalf("cached-route query latency = %v, want ≈ 1.42 s", second)
	}
	if second >= first {
		t.Fatal("route cache did not help")
	}
}

func TestWiFiInvalidateRoutes(t *testing.T) {
	clk, _, _, wa, wc := wifiRig(t)
	wc.PublishTag("temperature", 19.5, 0)
	done := 0
	wa.Query(sm.FinderSpec{TagName: "temperature", MaxHops: 2}, func([]sm.Result, error) { done++ })
	clk.Run(0)
	wa.InvalidateRoutes()
	start := clk.Now()
	var at time.Time
	wa.Query(sm.FinderSpec{TagName: "temperature", MaxHops: 2}, func([]sm.Result, error) { at = clk.Now() })
	clk.Run(0)
	if at.Sub(start) < 3*time.Second {
		t.Fatal("invalidated route did not rebuild")
	}
}

func TestWiFiQueryTimeoutReportsMonitor(t *testing.T) {
	clk, _, _, wa, _ := wifiRig(t)
	monA := monitor.New(clk)
	_ = monA
	var qerr error
	wa.Query(sm.FinderSpec{TagName: "nothing", MaxHops: 2, Timeout: 5 * time.Second},
		func(_ []sm.Result, err error) { qerr = err })
	clk.Run(0)
	if !errors.Is(qerr, sm.ErrFinderTimeout) {
		t.Fatalf("Query err = %v", qerr)
	}
}

func TestWiFiRemoveTagAndLeaveJoin(t *testing.T) {
	_, _, p, _, wc := wifiRig(t)
	wc.PublishTag("temperature", 1.0, 0)
	wc.RemoveTag("temperature")
	if wc.Tags().Has("temperature") {
		t.Fatal("tag not removed")
	}
	wc.Leave()
	if p.Runtime("c").Participating() {
		t.Fatal("still participating")
	}
	wc.Join()
	if !p.Runtime("c").Participating() {
		t.Fatal("did not rejoin")
	}
}

// umtsRig builds a phone + infra over UMTS with a UMTS reference.
func umtsRig(t *testing.T) (*vclock.Simulator, *simnet.Network, *fuego.Server, *UMTSReference, *monitor.Monitor) {
	t.Helper()
	clk := vclock.NewSimulator()
	nw := simnet.New(clk)
	for _, id := range []simnet.NodeID{"phone", "infra"} {
		if _, err := nw.AddNode(id, simnet.Position{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.Connect("phone", "infra", radio.MediumUMTS); err != nil {
		t.Fatal(err)
	}
	u := radio.NewUMTS(9)
	srv, err := fuego.NewServer(nw, "infra", u)
	if err != nil {
		t.Fatal(err)
	}
	mon := monitor.New(clk)
	ref, err := NewUMTSReference(nw, "phone", "infra", u, mon)
	if err != nil {
		t.Fatal(err)
	}
	return clk, nw, srv, ref, mon
}

func TestUMTSRequestAndFailureReporting(t *testing.T) {
	clk, nw, srv, ref, mon := umtsRig(t)
	srv.HandleRequest("echo", func(r fuego.Request) (any, error) { return r.Payload, nil })
	var got any
	ref.Request("echo", 7, 0, func(v any, err error) { got = v })
	clk.Run(0)
	if got != 7 {
		t.Fatalf("Request = %v", got)
	}
	// Disconnection: failure reported.
	nw.Disconnect("phone", "infra", radio.MediumUMTS)
	var rerr error
	ref.Request("echo", 8, time.Second, func(_ any, err error) { rerr = err })
	clk.Run(0)
	if rerr == nil || !mon.Failed("umts") {
		t.Fatalf("err=%v failed=%v", rerr, mon.Failed("umts"))
	}
	// Reconnection: recovery reported after a successful op.
	if err := nw.Connect("phone", "infra", radio.MediumUMTS); err != nil {
		t.Fatal(err)
	}
	ref.Request("echo", 9, 0, func(any, error) {})
	clk.Run(0)
	if mon.Failed("umts") {
		t.Fatal("umts failure not cleared")
	}
}

func TestUMTSPublishSubscribe(t *testing.T) {
	clk, _, srv, ref, _ := umtsRig(t)
	if _, err := ref.Publish("locations", "fix-1"); err != nil {
		t.Fatal(err)
	}
	clk.Run(0)
	if srv.Events() != 1 {
		t.Fatalf("server events = %d", srv.Events())
	}
	unsubscribe, err := ref.Subscribe("alerts", func(fuego.Notification) {})
	if err != nil {
		t.Fatal(err)
	}
	clk.Run(0)
	if subs := srv.Subscribers("alerts"); len(subs) != 1 {
		t.Fatalf("subscribers = %v", subs)
	}
	if err := unsubscribe(); err != nil {
		t.Fatal(err)
	}
	clk.Run(0)
	if subs := srv.Subscribers("alerts"); len(subs) != 0 {
		t.Fatalf("subscribers after unsub = %v", subs)
	}
}

func TestGSMIdlePeaks(t *testing.T) {
	clk, _, _, ref, _ := umtsRig(t)
	ref.SetGSMRadio(true)
	if !ref.GSMOn() {
		t.Fatal("GSM not on")
	}
	ref.SetGSMRadio(true) // idempotent
	start := clk.Now()
	clk.Advance(10 * time.Minute)
	e := float64(ref.Node().Timeline().WindowEnergy("gsm-idle-peak"))
	// ≈ 10–12 peaks of ~465 mW × 1.5 s ≈ 0.7 J each → ≈ 7–8 J.
	if e < 4 || e > 12 {
		t.Fatalf("idle peak energy over 10 min = %v J", e)
	}
	ref.SetGSMRadio(false)
	eOff := float64(ref.Node().Timeline().WindowEnergy("gsm-idle-peak"))
	clk.Advance(10 * time.Minute)
	if got := float64(ref.Node().Timeline().WindowEnergy("gsm-idle-peak")); got != eOff {
		t.Fatalf("idle peaks continued after radio off: %v → %v", eOff, got)
	}
	_ = start
}

func TestUMTSReferenceUnknownNode(t *testing.T) {
	clk := vclock.NewSimulator()
	nw := simnet.New(clk)
	if _, err := NewUMTSReference(nw, "ghost", "infra", radio.NewUMTS(1), nil); err == nil {
		t.Fatal("NewUMTSReference(ghost) succeeded")
	}
}

func TestBTCloseReleasesScanPower(t *testing.T) {
	r := newRig(t)
	if p := r.btA.Node().Timeline().State("bt-scan"); p != 2.72 {
		t.Fatalf("bt-scan power = %v, want 2.72 mW", p)
	}
	r.btA.Close()
	if p := r.btA.Node().Timeline().State("bt-scan"); p != 0 {
		t.Fatalf("bt-scan power after Close = %v", p)
	}
}

func TestWiFiQueryRetryRecoversFromTransientLoss(t *testing.T) {
	clk, nw, _, wa, wc := wifiRig(t)
	wc.PublishTag("temperature", 19.5, 0)
	wa.SetRetryPolicy(1, 0, 0)
	// First attempt times out: the relay link is down; restore it before
	// the retry fires.
	nw.FailLink("a", "b", radio.MediumWiFi)
	var results []sm.Result
	var qerr error
	wa.Query(sm.FinderSpec{TagName: "temperature", MaxHops: 2, Timeout: 10 * time.Second},
		func(rs []sm.Result, err error) { results, qerr = rs, err })
	clk.Advance(12 * time.Second) // first attempt times out
	nw.RestoreLink("a", "b", radio.MediumWiFi)
	clk.Advance(time.Minute)
	if qerr != nil {
		t.Fatalf("query failed despite retry: %v", qerr)
	}
	if len(results) != 1 || results[0].Value != 19.5 {
		t.Fatalf("results = %+v", results)
	}
}

func TestWiFiQueryRetriesExhaust(t *testing.T) {
	clk, nw, _, wa, wc := wifiRig(t)
	wc.PublishTag("temperature", 19.5, 0)
	wa.SetRetryPolicy(1, 0, 0)
	wa.SetRetryPolicy(-5, 0, 0) // clamped to 0
	wa.SetRetryPolicy(1, 0, 0)
	nw.FailLink("a", "b", radio.MediumWiFi)
	var qerr error
	done := 0
	wa.Query(sm.FinderSpec{TagName: "temperature", MaxHops: 2, Timeout: 5 * time.Second},
		func(_ []sm.Result, err error) { qerr, done = err, done+1 })
	clk.Advance(5 * time.Minute)
	if done != 1 {
		t.Fatalf("done fired %d times", done)
	}
	if !errors.Is(qerr, sm.ErrFinderTimeout) {
		t.Fatalf("err = %v", qerr)
	}
}

func TestHandoverBugSwitchesPhoneOff(t *testing.T) {
	clk, _, srv, ref, mon := umtsRig(t)
	srv.HandleRequest("echo", func(r fuego.Request) (any, error) { return r.Payload, nil })
	ref.SetGSMRadio(true)

	// Handover with no active connection: harmless.
	if ref.Handover() {
		t.Fatal("idle handover switched the phone off")
	}
	// Open a connection, then hand over mid-cycle.
	ref.Request("echo", 1, 0, func(any, error) {})
	clk.Advance(time.Second)
	if !ref.Handover() {
		t.Fatal("handover during an active connection did not bite")
	}
	if ref.SwitchOffs() != 1 {
		t.Fatalf("SwitchOffs = %d", ref.SwitchOffs())
	}
	if !ref.Node().Down() || !mon.Failed("phone") {
		t.Fatal("phone not down / monitor not notified")
	}
	// The user reboots it a minute later.
	clk.Advance(2 * time.Minute)
	if ref.Node().Down() || mon.Failed("phone") {
		t.Fatal("phone did not come back")
	}

	// Pinned to 2G: the same sequence is safe (the field-trial fix).
	ref.Set2GOnly(true)
	if !ref.TwoGOnly() {
		t.Fatal("2G-only not set")
	}
	ref.Request("echo", 2, 0, func(any, error) {})
	clk.Advance(time.Second)
	if ref.Handover() {
		t.Fatal("2G-only phone switched off on handover")
	}
	clk.Advance(time.Minute)
}

func TestHandoverNeedsGSMRadio(t *testing.T) {
	_, _, _, ref, _ := umtsRig(t)
	// GSM radio off: handover cannot affect the phone.
	if ref.Handover() {
		t.Fatal("handover with GSM radio off switched the phone off")
	}
}

// TestUMTSRequestSerialization checks that on-demand requests serialize on
// the single cellular data channel: a burst of three sees queueing latency
// for the second and third, and a request issued after the channel frees
// goes straight out.
func TestUMTSRequestSerialization(t *testing.T) {
	clk, _, srv, ref, _ := umtsRig(t)
	reg := metrics.NewRegistry()
	ref.SetMetrics(reg)
	srv.HandleRequest("echo", func(r fuego.Request) (any, error) { return r.Payload, nil })

	start := clk.Now()
	var dones []time.Duration
	for i := 0; i < 3; i++ {
		ref.Request("echo", i, 0, func(any, error) {
			dones = append(dones, clk.Now().Sub(start))
		})
	}
	clk.Run(0)
	if len(dones) != 3 {
		t.Fatalf("%d requests completed, want 3", len(dones))
	}
	// The second and third requests could not start before the nominal
	// transfer window of the ones ahead elapsed.
	if dones[1] < radio.UMTSGetLatency+radio.UMTSGetLatencyMin {
		t.Fatalf("second request done at %v, want >= %v (queued behind the first)",
			dones[1], radio.UMTSGetLatency+radio.UMTSGetLatencyMin)
	}
	if dones[2] < 2*radio.UMTSGetLatency+radio.UMTSGetLatencyMin {
		t.Fatalf("third request done at %v, want >= %v (queued behind two)",
			dones[2], 2*radio.UMTSGetLatency+radio.UMTSGetLatencyMin)
	}
	if !(dones[0] < dones[1] && dones[1] < dones[2]) {
		t.Fatalf("completions out of order: %v", dones)
	}
	if q := reg.Counter("refs.umts.queued").Value(); q != 2 {
		t.Fatalf("refs.umts.queued = %d, want 2", q)
	}
	// Channel long free: a fresh request is not queued.
	clk.Advance(time.Minute)
	done := false
	ref.Request("echo", 4, 0, func(any, error) { done = true })
	clk.Run(0)
	if !done {
		t.Fatal("post-drain request never completed")
	}
	if q := reg.Counter("refs.umts.queued").Value(); q != 2 {
		t.Fatalf("refs.umts.queued after idle request = %d, want still 2", q)
	}
}

// Requests queued behind a busy channel go out in issue order, each with
// its own payload and callback, and every outcome is accounted once: the
// reference observes each completion before its callback runs.
func TestUMTSQueuedRequestsKeepTheirOwn(t *testing.T) {
	clk, nw, srv, ref, mon := umtsRig(t)
	reg := metrics.NewRegistry()
	ref.SetMetrics(reg)
	srv.HandleRequest("echo", func(r fuego.Request) (any, error) { return r.Payload, nil })
	var got []any
	for i := 0; i < 4; i++ {
		want := i
		ref.Request("echo", want, 0, func(v any, err error) {
			if err != nil || v != want {
				t.Errorf("request %d answered %v, %v", want, v, err)
			}
			got = append(got, v)
		})
	}
	clk.Run(0)
	if want := []any{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("answers %v, want %v", got, want)
	}
	if q := reg.Counter("refs.umts.queued").Value(); q != 3 {
		t.Fatalf("refs.umts.queued = %d, want 3", q)
	}
	// Two failing requests, one queued behind the other: each is counted
	// and reported before its callback sees the error.
	nw.Disconnect("phone", "infra", radio.MediumUMTS)
	failed := 0
	for i := 0; i < 2; i++ {
		ref.Request("echo", i, time.Second, func(_ any, err error) {
			if err == nil || !mon.Failed("umts") {
				t.Errorf("failed request: err %v, umts failed %v", err, mon.Failed("umts"))
			}
			failed++
		})
	}
	clk.Run(0)
	if failed != 2 {
		t.Fatalf("%d failing requests completed, want 2", failed)
	}
	if n := reg.Counter("refs.umts.failures").Value(); n != 2 {
		t.Fatalf("refs.umts.failures = %d, want 2", n)
	}
}
