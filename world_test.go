package contory

import (
	"testing"
	"time"

	"contory/internal/fuego"
	"contory/internal/infra"
)

func TestWorldEndToEndAdHoc(t *testing.T) {
	w, err := NewWorld(42)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := w.AddPhone(PhoneConfig{ID: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	bob, err := w.AddPhone(PhoneConfig{ID: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Link("alice", "bob", "wifi"); err != nil {
		t.Fatal(err)
	}
	bob.PublishTag(TypeTemperature, 14.0)

	var items []Item
	cli := ClientFuncs{OnItem: func(it Item) { items = append(items, it) }}
	q := MustParseQuery("SELECT temperature FROM adHocNetwork(all,1) DURATION 5 min EVERY 30 sec")
	sub, err := alice.Factory.ProcessCxtQuery(q, cli)
	if err != nil {
		t.Fatal(err)
	}
	w.Run(2 * time.Minute)
	if len(items) < 2 {
		t.Fatalf("items = %d", len(items))
	}
	if items[0].Value != 14.0 || items[0].Type != TypeTemperature {
		t.Fatalf("item = %+v", items[0])
	}
	sub.Cancel()
}

func TestWorldGPSPhone(t *testing.T) {
	w, err := NewWorld(7)
	if err != nil {
		t.Fatal(err)
	}
	boat, err := w.AddPhone(PhoneConfig{ID: "boat", GPS: &Fix{Lat: 60.1, Lon: 24.9, SpeedKn: 6}})
	if err != nil {
		t.Fatal(err)
	}
	var items []Item
	cli := ClientFuncs{OnItem: func(it Item) { items = append(items, it) }}
	q := MustParseQuery("SELECT location FROM intSensor DURATION 1 min EVERY 5 sec")
	if _, err := boat.Factory.ProcessCxtQuery(q, cli); err != nil {
		t.Fatal(err)
	}
	w.Run(30 * time.Second)
	if len(items) < 4 {
		t.Fatalf("fixes = %d", len(items))
	}
	fix, ok := items[0].Value.(Fix)
	if !ok || fix.Lat == 0 {
		t.Fatalf("value = %+v", items[0].Value)
	}
	// The GPS device handle supports failure injection.
	if w.GPSOf("boat") == nil {
		t.Fatal("no GPS handle")
	}
}

// TestWorldTwoGPSQueriesShareStream: a second GPS-backed query on a phone
// joins the first one's stream instead of taking it over. The location
// query gets as many items beside a speed query as it gets alone, the
// speed query gets its own, and the healthy stream reports no GPS
// failure, not even after the speed query ends.
func TestWorldTwoGPSQueriesShareStream(t *testing.T) {
	run := func(withSpeed bool) (locations, speeds int, gpsFailures []string) {
		w, err := NewWorld(7)
		if err != nil {
			t.Fatal(err)
		}
		boat, err := w.AddPhone(PhoneConfig{ID: "boat", GPS: &Fix{Lat: 60.1, Lon: 24.9, SpeedKn: 6}})
		if err != nil {
			t.Fatal(err)
		}
		submit := func(src string, n *int, want Type) {
			cli := ClientFuncs{OnItem: func(it Item) {
				if it.Type != want {
					t.Errorf("%q delivered a %s item", src, it.Type)
				}
				*n++
			}}
			if _, err := boat.Factory.ProcessCxtQuery(MustParseQuery(src), cli); err != nil {
				t.Fatal(err)
			}
		}
		submit("SELECT location FROM intSensor DURATION 2 min EVERY 5 sec", &locations, TypeLocation)
		if withSpeed {
			submit("SELECT speed FROM intSensor DURATION 30 sec EVERY 5 sec", &speeds, TypeSpeed)
		}
		w.Run(90 * time.Second)
		for _, ev := range boat.Device.Monitor.Events() {
			if ev.Resource == "boat-gps" {
				gpsFailures = append(gpsFailures, ev.Kind.String()+" at "+ev.At.Format("15:04:05.000"))
			}
		}
		return locations, speeds, gpsFailures
	}
	alone, _, _ := run(false)
	if alone < 17 {
		t.Fatalf("location query alone: %d items in 90 s, want about 18", alone)
	}
	locations, speeds, events := run(true)
	if locations != alone {
		t.Errorf("location query beside a speed query: %d items, alone %d", locations, alone)
	}
	if speeds < 5 {
		t.Errorf("speed query: %d items in its 30 s, want about 6", speeds)
	}
	if len(events) != 0 {
		t.Errorf("healthy GPS stream reported %v", events)
	}
}

// TestWorldGPSQueryEndDetachesStream: a GPS-backed query that ends, by
// its DURATION, by the fix that answers it on demand, by its sample
// budget or by a cancel, detaches from the BT-GPS stream, so the phone
// stops paying for per-second bursts. The on-demand query detaches from
// inside the stream's own fix callback. A query merged into the stream
// keeps it running after the stream's first owner ends, on its own
// DURATION, and detaches it when it ends.
func TestWorldGPSQueryEndDetachesStream(t *testing.T) {
	for _, tc := range []struct {
		src      string
		also     string        // a longer query merged into src's stream
		cancelAt time.Duration // when src is cancelled (0: never)
		items    int           // delivered to src and also by 40 s
	}{
		{src: "SELECT location FROM intSensor DURATION 30 sec EVERY 5 sec", items: 5},
		{src: "SELECT location FROM intSensor DURATION 1 min", items: 1},
		{src: "SELECT location FROM intSensor DURATION 3 samples EVERY 5 sec", items: 3},
		{src: "SELECT location FROM intSensor DURATION 10 min EVERY 5 sec", cancelAt: 22 * time.Second, items: 4},
		{
			src:   "SELECT location FROM intSensor DURATION 15 sec EVERY 5 sec",
			also:  "SELECT location FROM intSensor DURATION 30 sec EVERY 5 sec",
			items: 2 + 5,
		},
	} {
		t.Run(tc.src, func(t *testing.T) {
			w, err := NewWorld(7)
			if err != nil {
				t.Fatal(err)
			}
			boat, err := w.AddPhone(PhoneConfig{ID: "boat", GPS: &Fix{Lat: 60.1, Lon: 24.9, SpeedKn: 6}})
			if err != nil {
				t.Fatal(err)
			}
			items := 0
			cli := ClientFuncs{OnItem: func(Item) { items++ }}
			sub, err := boat.Factory.ProcessCxtQuery(MustParseQuery(tc.src), cli)
			if err != nil {
				t.Fatal(err)
			}
			if tc.also != "" {
				if _, err := boat.Factory.ProcessCxtQuery(MustParseQuery(tc.also), cli); err != nil {
					t.Fatal(err)
				}
				if _, merged := boat.Factory.Facade(MechanismLocal).Stats(); merged != 1 {
					t.Fatalf("%d merges, want the second query on the first one's stream", merged)
				}
			}
			gpsJoules := func() float64 {
				return float64(boat.Device.Node.Timeline().WindowEnergy("bt-gps-sample"))
			}
			if tc.cancelAt > 0 {
				w.Run(tc.cancelAt)
				sub.Cancel()
			}
			w.Run(40*time.Second - tc.cancelAt)
			atEnd := gpsJoules()
			if items != tc.items || atEnd <= 0 {
				t.Fatalf("%d items, %.2f J of GPS samples in 40 s; want %d items and some energy", items, atEnd, tc.items)
			}
			w.Run(60 * time.Second)
			if after := gpsJoules(); after != atEnd {
				t.Fatalf("GPS sample energy %.2f J at 40 s, %.2f J at 100 s: the ended query still holds the stream", atEnd, after)
			}
		})
	}
}

// TestWorldInfraEventQueryEndUnsubscribes: an extInfra EVENT query holds a
// Fuego subscription on its SELECT type while it runs and drops it when
// it ends, by its DURATION, its sample budget or a cancel. A query merged
// into the stream keeps the subscription after the stream's first owner
// ends, receives its own items, and drops it when it ends.
func TestWorldInfraEventQueryEndUnsubscribes(t *testing.T) {
	for _, tc := range []struct {
		name     string
		src      string
		also     string        // a longer query merged into src's stream
		cancelAt time.Duration // when src is cancelled (0: never)
		items    int           // delivered to src and also
	}{
		{name: "duration", src: "SELECT temperature FROM extInfra DURATION 30 sec EVENT temperature>10", items: 5},
		{name: "samples", src: "SELECT temperature FROM extInfra DURATION 2 samples EVENT temperature>10", items: 2},
		{name: "cancel", src: "SELECT temperature FROM extInfra DURATION 10 min EVENT temperature>10", cancelAt: 22 * time.Second, items: 4},
		{
			name:  "merged subscriber outlives owner",
			src:   "SELECT temperature FROM extInfra DURATION 15 sec EVENT temperature>10",
			also:  "SELECT temperature FROM extInfra DURATION 30 sec EVENT temperature>10",
			items: 2 + 5,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := NewWorld(9)
			if err != nil {
				t.Fatal(err)
			}
			asker, err := w.AddPhone(PhoneConfig{ID: "asker"})
			if err != nil {
				t.Fatal(err)
			}
			reporter, err := w.AddPhone(PhoneConfig{ID: "reporter"})
			if err != nil {
				t.Fatal(err)
			}
			items := 0
			cli := ClientFuncs{OnItem: func(Item) { items++ }}
			sub, err := asker.Factory.ProcessCxtQuery(MustParseQuery(tc.src), cli)
			if err != nil {
				t.Fatal(err)
			}
			if tc.also != "" {
				if _, err := asker.Factory.ProcessCxtQuery(MustParseQuery(tc.also), cli); err != nil {
					t.Fatal(err)
				}
				if _, merged := asker.Factory.Facade(MechanismInfra).Stats(); merged != 1 {
					t.Fatalf("%d merges, want the second query on the first one's stream", merged)
				}
			}
			srv := w.Infrastructure().Server()
			w.Run(4 * time.Second)
			if subs := srv.Subscribers("temperature"); len(subs) != 1 || string(subs[0]) != asker.ID() {
				t.Fatalf("subscribers while the query runs = %v, want [%s]", subs, asker.ID())
			}
			// The reporter publishes every 5 s from 5 s to 60 s.
			for at := 5 * time.Second; at <= time.Minute; at += time.Second {
				w.Run(time.Second)
				if at == tc.cancelAt {
					sub.Cancel()
				}
				if at%(5*time.Second) != 0 {
					continue
				}
				if _, err := reporter.Device.UMTS.Publish("temperature", Item{Type: TypeTemperature, Value: 20.0, Timestamp: w.Now()}); err != nil {
					t.Fatal(err)
				}
			}
			w.Run(5 * time.Second)
			if items != tc.items {
				t.Fatalf("%d items, want %d", items, tc.items)
			}
			if subs := srv.Subscribers("temperature"); len(subs) != 0 {
				t.Fatalf("subscribers after the query ended = %v, want none", subs)
			}
		})
	}
}

// TestWorldInfraEventQueriesShareChannel: two extInfra EVENT queries on
// one phone that cannot merge (one ends by time, one by sample count) both
// receive the events of their SELECT type, and the first one's expiry
// leaves the second subscribed.
func TestWorldInfraEventQueriesShareChannel(t *testing.T) {
	w, err := NewWorld(9)
	if err != nil {
		t.Fatal(err)
	}
	asker, err := w.AddPhone(PhoneConfig{ID: "asker"})
	if err != nil {
		t.Fatal(err)
	}
	reporter, err := w.AddPhone(PhoneConfig{ID: "reporter"})
	if err != nil {
		t.Fatal(err)
	}
	var timed, counted int
	for _, sub := range []struct {
		src string
		n   *int
	}{
		{"SELECT temperature FROM extInfra DURATION 20 sec EVENT temperature>10", &timed},
		{"SELECT temperature FROM extInfra DURATION 100 samples EVENT temperature>10", &counted},
	} {
		n := sub.n
		if _, err := asker.Factory.ProcessCxtQuery(MustParseQuery(sub.src), ClientFuncs{OnItem: func(Item) { *n++ }}); err != nil {
			t.Fatal(err)
		}
	}
	const publishes = 12 // one every 5 s; the first three land inside 20 s
	for i := 0; i < publishes; i++ {
		w.Run(5 * time.Second)
		if _, err := reporter.Device.UMTS.Publish("temperature", Item{Type: TypeTemperature, Value: 20.0, Timestamp: w.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	w.Run(5 * time.Second)
	if timed != 3 || counted != publishes {
		t.Fatalf("20 s query got %d items, want 3; sample-limited query got %d, want %d", timed, counted, publishes)
	}
}

// TestWorldWeatherReportsReachEventQueries: ReportWeather publishes on the
// weather channel, while an extInfra EVENT query subscribes on its SELECT
// type; the infrastructure forwards each stored observation to the channel
// its type names, so every report reaches the query — except the
// reporter's own, as with any published event.
func TestWorldWeatherReportsReachEventQueries(t *testing.T) {
	w, err := NewWorld(9)
	if err != nil {
		t.Fatal(err)
	}
	asker, err := w.AddPhone(PhoneConfig{ID: "asker"})
	if err != nil {
		t.Fatal(err)
	}
	reporter, err := w.AddPhone(PhoneConfig{ID: "reporter"})
	if err != nil {
		t.Fatal(err)
	}
	items, own := 0, 0
	q := MustParseQuery("SELECT temperature FROM extInfra DURATION 2 min EVENT temperature>10")
	if _, err := asker.Factory.ProcessCxtQuery(q, ClientFuncs{OnItem: func(Item) { items++ }}); err != nil {
		t.Fatal(err)
	}
	if _, err := reporter.Factory.ProcessCxtQuery(q, ClientFuncs{OnItem: func(Item) { own++ }}); err != nil {
		t.Fatal(err)
	}
	const reports = 12 // one every 5 s for 60 s
	for i := 0; i < reports; i++ {
		w.Run(5 * time.Second)
		if err := reporter.ReportWeather(TypeTemperature, 20); err != nil {
			t.Fatal(err)
		}
	}
	w.Run(5 * time.Second)
	if items != reports || own != 0 {
		t.Fatalf("EVENT query got %d items from %d weather reports, want one each; the reporter's got %d, want 0", items, reports, own)
	}
}

// TestWorldLocationReportHeardOnce: an item whose type is the channel it
// was published on reaches that channel's subscribers through the broker's
// fan-out alone, not a second time by forwarding.
func TestWorldLocationReportHeardOnce(t *testing.T) {
	w, err := NewWorld(9)
	if err != nil {
		t.Fatal(err)
	}
	listener, err := w.AddPhone(PhoneConfig{ID: "listener"})
	if err != nil {
		t.Fatal(err)
	}
	reporter, err := w.AddPhone(PhoneConfig{ID: "reporter"})
	if err != nil {
		t.Fatal(err)
	}
	heard := 0
	if _, err := listener.Device.UMTS.Subscribe(infra.ChannelLocation, func(fuego.Notification) { heard++ }); err != nil {
		t.Fatal(err)
	}
	w.Run(5 * time.Second)
	if err := reporter.ReportLocation(Fix{Lat: 60.1, Lon: 24.9}); err != nil {
		t.Fatal(err)
	}
	w.Run(time.Minute)
	if heard != 1 {
		t.Fatalf("location subscriber heard one report %d times, want 1", heard)
	}
}

func TestWorldInfraPath(t *testing.T) {
	w, err := NewWorld(9)
	if err != nil {
		t.Fatal(err)
	}
	reporter, err := w.AddPhone(PhoneConfig{ID: "reporter"})
	if err != nil {
		t.Fatal(err)
	}
	asker, err := w.AddPhone(PhoneConfig{ID: "asker"})
	if err != nil {
		t.Fatal(err)
	}
	if err := reporter.ReportLocation(Fix{Lat: 60.1, Lon: 24.9}); err != nil {
		t.Fatal(err)
	}
	if err := reporter.ReportWeather(TypeTemperature, 13.5); err != nil {
		t.Fatal(err)
	}
	w.Run(time.Minute)
	if w.Infrastructure().Stored() != 2 {
		t.Fatalf("infra stored = %d", w.Infrastructure().Stored())
	}
	var items []Item
	cli := ClientFuncs{OnItem: func(it Item) { items = append(items, it) }}
	q := MustParseQuery("SELECT temperature FROM extInfra DURATION 1 min")
	if _, err := asker.Factory.ProcessCxtQuery(q, cli); err != nil {
		t.Fatal(err)
	}
	w.Run(time.Minute)
	if len(items) != 1 || items[0].Value != 13.5 {
		t.Fatalf("items = %+v", items)
	}
}

func TestWorldErrors(t *testing.T) {
	w, err := NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddPhone(PhoneConfig{}); err == nil {
		t.Error("phone without id accepted")
	}
	if _, err := w.AddPhone(PhoneConfig{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddPhone(PhoneConfig{ID: "a"}); err == nil {
		t.Error("duplicate phone accepted")
	}
	if err := w.Link("a", "ghost", "wifi"); err == nil {
		t.Error("link to ghost accepted")
	}
	if err := w.Link("a", "a", "zigbee"); err == nil {
		t.Error("bad medium accepted")
	}
	if w.Phone("ghost") != nil {
		t.Error("ghost phone found")
	}
	phone, _ := w.AddPhone(PhoneConfig{ID: "nolink", NoInfra: true})
	if err := phone.ReportLocation(Fix{}); err == nil {
		t.Error("ReportLocation without infra succeeded")
	}
	if err := phone.ReportWeather(TypeWind, 1); err == nil {
		t.Error("ReportWeather without infra succeeded")
	}
}

func TestWorldMobilityAndRange(t *testing.T) {
	w, err := NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := w.AddPhone(PhoneConfig{ID: "a"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.AddPhone(PhoneConfig{ID: "b", X: 300})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SetRange("wifi", 100); err != nil {
		t.Fatal(err)
	}
	b.PublishTag(TypeWind, 8.0)
	w.StartMobility(time.Second)
	b.SetVelocity(-10, 0) // approaching at 10 m/s

	var items []Item
	cli := ClientFuncs{OnItem: func(it Item) { items = append(items, it) }}
	q := MustParseQuery("SELECT wind FROM adHocNetwork(all,1) DURATION 10 min EVERY 20 sec")
	if _, err := a.Factory.ProcessCxtQuery(q, cli); err != nil {
		t.Fatal(err)
	}
	w.Run(15 * time.Second) // still out of range
	if len(items) != 0 {
		t.Fatalf("items while out of range: %d", len(items))
	}
	w.Run(2 * time.Minute) // b arrives within 100 m after ~20 s
	if len(items) == 0 {
		t.Fatal("no items after b moved into range")
	}
	_ = b
}

func TestClientFuncsDefaults(t *testing.T) {
	var c ClientFuncs
	c.ReceiveCxtItem(Item{}) // no panic
	c.InformError("x")
	if !c.MakeDecision("y") {
		t.Fatal("default decision should grant")
	}
	denied := ClientFuncs{OnDecision: func(string) bool { return false }}
	if denied.MakeDecision("z") {
		t.Fatal("custom decision ignored")
	}
}

func TestMergeQueriesPublicAPI(t *testing.T) {
	q1 := MustParseQuery("SELECT temperature FROM adHocNetwork(all,3) FRESHNESS 10 sec DURATION 1 hour EVERY 15 sec")
	q2 := MustParseQuery("SELECT temperature FROM adHocNetwork(all,1) FRESHNESS 20 sec DURATION 2 hour EVERY 30 sec")
	q3, err := MergeQueries(q1, q2)
	if err != nil {
		t.Fatal(err)
	}
	if q3.From.NumHops != 3 || q3.Every != 15*time.Second {
		t.Fatalf("q3 = %s", q3)
	}
}

func TestWorldSchedulingHelpers(t *testing.T) {
	w, err := NewWorld(5)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	w.After(10*time.Second, func() { fired++ })
	stop := w.Every(5*time.Second, func() { fired += 10 })
	w.Run(12 * time.Second) // After at 10s; Every at 5s, 10s
	if fired != 21 {
		t.Fatalf("fired = %d, want 21", fired)
	}
	stop()
	w.Run(time.Minute)
	if fired != 21 {
		t.Fatalf("Every kept firing after stop: %d", fired)
	}
}

func TestWorldRunUntilIdle(t *testing.T) {
	w, err := NewWorld(5)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	w.After(time.Second, func() { done = true })
	if n := w.RunUntilIdle(100); n == 0 || !done {
		t.Fatalf("RunUntilIdle ran %d events, done=%v", n, done)
	}
}

func TestWorldUnlinkAndPosition(t *testing.T) {
	w, err := NewWorld(6)
	if err != nil {
		t.Fatal(err)
	}
	a, err := w.AddPhone(PhoneConfig{ID: "a"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.AddPhone(PhoneConfig{ID: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Link("a", "b", "wifi"); err != nil {
		t.Fatal(err)
	}
	b.PublishTag(TypeWind, 8.0)
	if err := w.Unlink("a", "b", "wifi"); err != nil {
		t.Fatal(err)
	}
	if err := w.Unlink("a", "b", "zigbee"); err == nil {
		t.Fatal("Unlink with bad medium succeeded")
	}
	if err := w.SetRange("zigbee", 10); err == nil {
		t.Fatal("SetRange with bad medium succeeded")
	}
	var items []Item
	cli := ClientFuncs{OnItem: func(it Item) { items = append(items, it) }}
	q := MustParseQuery("SELECT wind FROM adHocNetwork(all,1) DURATION 2 min EVERY 20 sec")
	if _, err := a.Factory.ProcessCxtQuery(q, cli); err != nil {
		t.Fatal(err)
	}
	w.Run(90 * time.Second)
	if len(items) != 0 {
		t.Fatalf("items over unlinked medium: %d", len(items))
	}
	a.SetPosition(3, 4)
	if got := a.Device.Node.Position(); got.X != 3 || got.Y != 4 {
		t.Fatalf("position = %+v", got)
	}
}

func TestParseQueryPublicAPI(t *testing.T) {
	q, err := ParseQuery("SELECT wind DURATION 1 min")
	if err != nil || q.Select != TypeWind {
		t.Fatalf("ParseQuery = %+v, %v", q, err)
	}
	if _, err := ParseQuery("garbage"); err == nil {
		t.Fatal("ParseQuery(garbage) succeeded")
	}
}
