package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"contory/internal/audit"
	"contory/internal/cxt"
	"contory/internal/policy"
	"contory/internal/qos"
	"contory/internal/query"
	"contory/internal/radio"
	"contory/internal/refs"
)

func TestMultiMechanismQuery(t *testing.T) {
	b := newBed(t)
	// Sources on two mechanisms: an integrated thermometer and an ad hoc
	// peer publishing a slightly different reading.
	temp := 20.0
	b.dev.Internal.Register(refs.FuncSensor{
		SensorName: "thermo", CxtType: cxt.TypeTemperature,
		ReadFunc: func(now time.Time) (cxt.Item, error) {
			return cxt.Item{Type: cxt.TypeTemperature, Value: temp, Timestamp: now}, nil
		},
	})
	b.publishPeerTemp(24.0)

	cli := &testClient{}
	q := query.MustParse("SELECT temperature DURATION 5 min EVERY 20 sec")
	sub, err := b.factory.ProcessCxtQueryMulti(q, cli, MechanismLocal, MechanismAdHoc)
	if err != nil {
		t.Fatal(err)
	}
	mechs, err := sub.Mechanisms()
	if err != nil || len(mechs) != 2 {
		t.Fatalf("mechanisms = %v, %v", mechs, err)
	}
	b.clk.Advance(2 * time.Minute)
	// Both sources deliver: values 20 (sensor) and 24 (peer) both appear.
	var sawLocal, sawAdHoc bool
	for _, it := range cli.items {
		switch it.Value {
		case 20.0:
			sawLocal = true
		case 24.0:
			sawAdHoc = true
		}
	}
	if !sawLocal || !sawAdHoc {
		t.Fatalf("local=%v adhoc=%v items=%d", sawLocal, sawAdHoc, len(cli.items))
	}
	// Cancellation tears providers down on every facade.
	sub.Cancel()
	n := len(cli.items)
	b.clk.Advance(time.Minute)
	if len(cli.items) != n {
		t.Fatal("deliveries after multi cancel")
	}
	if b.factory.Facade(MechanismLocal).ActiveProviders() != 0 ||
		b.factory.Facade(MechanismAdHoc).ActiveProviders() != 0 {
		t.Fatal("providers survive multi cancel")
	}
}

// TestMultiMechanismRepeatedMechanism: a mechanism listed twice is used
// once — one provider stream, one subscriber attachment — so the client
// gets one stream's items, Cancel leaves no provider behind, and the
// facade balances close at zero.
func TestMultiMechanismRepeatedMechanism(t *testing.T) {
	for _, merge := range []bool{true, false} {
		t.Run(fmt.Sprintf("merging=%v", merge), func(t *testing.T) {
			a := audit.New()
			b := newBed(t, WithMerging(merge), WithAudit(a))
			b.dev.Internal.Register(refs.FuncSensor{
				SensorName: "thermo", CxtType: cxt.TypeTemperature,
				ReadFunc: func(now time.Time) (cxt.Item, error) {
					return cxt.Item{Type: cxt.TypeTemperature, Value: 20, Timestamp: now}, nil
				},
			})
			cli := &testClient{}
			sub, err := b.factory.ProcessCxtQueryMulti(
				query.MustParse("SELECT temperature DURATION 5 min EVERY 20 sec"),
				cli, MechanismLocal, MechanismLocal)
			if err != nil {
				t.Fatal(err)
			}
			if mechs, err := sub.Mechanisms(); err != nil || len(mechs) != 1 || mechs[0] != MechanismLocal {
				t.Errorf("mechanisms = %v, %v; want [intSensor]", mechs, err)
			}
			b.clk.Advance(time.Minute)
			if len(cli.items) != 3 {
				t.Errorf("items after one minute = %d, want 3", len(cli.items))
			}
			sub.Cancel()
			if n := b.factory.Facade(MechanismLocal).ActiveProviders(); n != 0 {
				t.Errorf("providers after cancel = %d, want 0", n)
			}
			b.factory.Close()
			if vs := a.Violations(); len(vs) != 0 {
				t.Errorf("violations: %v", vs)
			}
		})
	}
}

func TestMultiMechanismDefaultsToAllSupported(t *testing.T) {
	b := newBed(t)
	b.publishPeerTemp(24.0)
	b.store = append(b.store, cxt.Item{Type: cxt.TypeTemperature, Value: 19.0, Timestamp: b.clk.Now()})
	cli := &testClient{}
	q := query.MustParse("SELECT temperature DURATION 5 min EVERY 30 sec")
	sub, err := b.factory.ProcessCxtQueryMulti(q, cli)
	if err != nil {
		t.Fatal(err)
	}
	mechs, err := sub.Mechanisms()
	if err != nil {
		t.Fatal(err)
	}
	// No integrated temperature sensor: ad hoc + infra.
	if len(mechs) != 2 || mechs[0] != MechanismAdHoc || mechs[1] != MechanismInfra {
		t.Fatalf("mechanisms = %v", mechs)
	}
	b.clk.Advance(2 * time.Minute)
	if len(cli.items) == 0 {
		t.Fatal("no deliveries")
	}
}

func TestMultiMechanismErrors(t *testing.T) {
	b := newBed(t)
	q := query.MustParse("SELECT temperature DURATION 5 min EVERY 30 sec")
	if _, err := b.factory.ProcessCxtQueryMulti(q, nil); !errors.Is(err, ErrNilClient) {
		t.Fatalf("nil client = %v", err)
	}
	if _, err := b.factory.ProcessCxtQueryMulti(&query.Query{}, &testClient{}); err == nil {
		t.Fatal("invalid query accepted")
	}
	// Local mechanism alone is unsupported for temperature (no sensor).
	if _, err := b.factory.ProcessCxtQueryMulti(q, &testClient{}, MechanismLocal); err == nil {
		t.Fatal("unsupported mechanism accepted")
	}
	if _, err := b.factory.QueryMechanisms("q-404"); !errors.Is(err, ErrUnknownQuery) {
		t.Fatalf("unknown query = %v", err)
	}
}

func TestMultiMechanismNoFailover(t *testing.T) {
	b := newBed(t)
	b.peer.WiFi.PublishTag("location", cxt.Item{
		Type: cxt.TypeLocation, Value: cxt.Fix{Lat: 60.17}, Timestamp: b.clk.Now(), Lifetime: time.Hour,
	}, 0)
	cli := &testClient{}
	q := query.MustParse("SELECT location DURATION 20 min EVERY 5 sec")
	sub, err := b.factory.ProcessCxtQueryMulti(q, cli, MechanismLocal, MechanismAdHoc)
	if err != nil {
		t.Fatal(err)
	}
	b.clk.Advance(30 * time.Second)
	b.gpsDev.SetFailed(true)
	b.clk.Advance(2 * time.Minute)
	// No switch events: the query is already redundant across facades.
	if len(b.factory.Switches()) != 0 {
		t.Fatalf("switches = %v", b.factory.Switches())
	}
	// Ad hoc keeps delivering through the outage.
	mechs, _ := sub.Mechanisms()
	if len(mechs) != 2 {
		t.Fatalf("mechs = %v", mechs)
	}
	if len(cli.items) == 0 {
		t.Fatal("no deliveries")
	}
}

func TestBatteryAccountingDrivesPolicies(t *testing.T) {
	b := newBed(t)
	// Tiny battery so provisioning drains it quickly.
	small := b.dev.Battery()
	_ = small
	stop := b.dev.StartBatteryAccounting(10 * time.Second)
	defer stop()

	// Heavy consumer: periodic UMTS queries.
	b.store = append(b.store, cxt.Item{Type: cxt.TypeWeather, Value: "x", Timestamp: b.clk.Now()})
	cli := &testClient{}
	q := query.MustParse("SELECT weather FROM extInfra DURATION 2 hour EVERY 30 sec")
	sub, err := b.factory.ProcessCxtQuery(q, cli)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.factory.AddControlPolicy(policy.Rule{
		Name:      "save-power",
		Condition: policy.Cond("batteryLevel", policy.OpEqual, "low"),
		Action:    policy.ReducePower,
	}); err != nil {
		t.Fatal(err)
	}
	// Drain: each on-demand UMTS round costs ≈ 14 J; the default battery
	// holds 12.9 kJ, so force the level by draining most of it up front
	// and letting accounting cross the threshold.
	b.dev.Battery().Drain(12900 * 0.79)
	b.clk.Advance(10 * time.Minute)
	if b.dev.Monitor.BatteryLevel() != "low" {
		t.Fatalf("battery level = %v, want low", b.dev.Monitor.BatteryLevel())
	}
	// The reducePower policy terminated the UMTS-only query.
	if _, err := sub.Mechanism(); !errors.Is(err, ErrUnknownQuery) {
		t.Fatal("high-energy query survived battery-driven reducePower")
	}
	if len(cli.errs) == 0 {
		t.Fatal("client not informed")
	}
}

func TestBatteryAccountingStops(t *testing.T) {
	b := newBed(t)
	stop := b.dev.StartBatteryAccounting(time.Second)
	b.dev.Node.Timeline().SetState("burn", 1000) // 1 W
	b.clk.Advance(10 * time.Second)
	drainedAt := b.dev.Battery().Remaining()
	if drainedAt >= 1 {
		t.Fatal("no drain recorded")
	}
	stop()
	b.clk.Advance(10 * time.Second)
	if got := b.dev.Battery().Remaining(); got != drainedAt {
		t.Fatalf("drain continued after stop: %v → %v", drainedAt, got)
	}
}

// TestSoak24Hours: a full virtual day of periodic GPS provisioning with
// battery accounting; memory-bounded (the timeline keeps no history) and
// deterministic.
func TestSoak24Hours(t *testing.T) {
	b := newBed(t)
	stop := b.dev.StartBatteryAccounting(time.Minute)
	defer stop()
	cli := &testClient{}
	q := query.MustParse("SELECT location FROM intSensor DURATION 30 hour EVERY 30 sec")
	if _, err := b.factory.ProcessCxtQuery(q, cli); err != nil {
		t.Fatal(err)
	}
	b.clk.Advance(24 * time.Hour)
	// ~2880 deliveries over the day.
	if len(cli.items) < 2500 {
		t.Fatalf("items = %d over 24 h", len(cli.items))
	}
	// The day's draw is integrated as it happens, not kept as history:
	// the timeline reads the whole day, about 36 kJ of GPS sampling.
	if j := b.dev.Node.Timeline().Joules(); j < 30000 {
		t.Fatalf("timeline drew %v J over a day of GPS streaming", j)
	}
	// A day of 0.422 J/s GPS sampling ≈ 36 kJ — far beyond the 12.9 kJ
	// battery; the monitor saw the battery run down.
	if b.dev.Battery().Remaining() > 0.05 {
		t.Fatalf("battery remaining = %v after a day of GPS streaming", b.dev.Battery().Remaining())
	}
	if b.dev.Monitor.BatteryLevel() != "low" {
		t.Fatalf("battery level = %v", b.dev.Monitor.BatteryLevel())
	}
}

func TestFactorySmallAccessors(t *testing.T) {
	b := newBed(t)
	if b.factory.Device() != b.dev {
		t.Fatal("Device accessor broken")
	}
	cli := &testClient{}
	sub, err := b.factory.ProcessCxtQuery(
		query.MustParse("SELECT location FROM intSensor DURATION 5 min EVERY 5 sec"), cli)
	if err != nil {
		t.Fatal(err)
	}
	b.clk.Advance(30 * time.Second)
	if got := sub.Stats().Delivered; got == 0 || got != len(cli.items) {
		t.Fatalf("Stats().Delivered = %d, items = %d", got, len(cli.items))
	}
	if got := b.factory.QueryStats("q-404"); got != (SubscriptionStats{}) {
		t.Fatalf("QueryStats(unknown) = %+v", got)
	}
	// Policy add/remove round trip.
	if err := b.factory.AddControlPolicy(policy.Rule{
		Name: "r", Condition: policy.Cond("a", policy.OpEqual, "1"), Action: policy.ReduceLoad,
	}); err != nil {
		t.Fatal(err)
	}
	b.factory.RemoveControlPolicy("r")
	// Re-adding succeeds after removal.
	if err := b.factory.AddControlPolicy(policy.Rule{
		Name: "r", Condition: policy.Cond("a", policy.OpEqual, "1"), Action: policy.ReduceLoad,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRemoteErrorPath(t *testing.T) {
	b := newBed(t)
	// Break the UMTS link: remote storage fails, local storage survives.
	b.nw.Disconnect("phone", "infra", radio.MediumUMTS)
	var gotErr error
	b.dev.Repo.StoreRemote(cxt.Item{Type: cxt.TypeWind, Value: 1.0, Timestamp: b.clk.Now()},
		func(err error) { gotErr = err })
	b.clk.Advance(10 * time.Second)
	if gotErr == nil {
		t.Fatal("remote store over dead link reported success")
	}
	if _, ok := b.dev.Repo.Latest(cxt.TypeWind); !ok {
		t.Fatal("item not stored locally despite remote failure")
	}
}

func TestReducePowerSwitchesAdHocTransportToBT(t *testing.T) {
	b := newBed(t)
	// A one-hop explicit ad hoc query currently uses WiFi; after
	// reducePower fires, newly created providers prefer BT.
	b.publishPeerTemp(14.0)
	b.peer.BT.RegisterService(refs.ServiceRecord{
		Name: "temperature",
		Item: cxt.Item{Type: cxt.TypeTemperature, Value: 14.0, Timestamp: b.clk.Now()},
	}, nil)
	b.clk.Advance(time.Second)

	if err := b.factory.AddControlPolicy(policy.Rule{
		Name:      "low-battery",
		Condition: policy.Cond("batteryLevel", policy.OpEqual, "low"),
		Action:    policy.ReducePower,
	}); err != nil {
		t.Fatal(err)
	}
	b.dev.Monitor.SetBattery(0.1) // fires reducePower

	cli := &testClient{}
	q := query.MustParse("SELECT temperature FROM adHocNetwork(all,1) DURATION 10 min EVERY 30 sec")
	if _, err := b.factory.ProcessCxtQuery(q, cli); err != nil {
		t.Fatal(err)
	}
	// BT transport pays 13 s discovery before the first item.
	b.clk.Advance(5 * time.Second)
	if len(cli.items) != 0 {
		t.Fatal("items before BT discovery completed: provider is not BT")
	}
	b.clk.Advance(2 * time.Minute)
	if len(cli.items) == 0 {
		t.Fatal("no items from BT ad hoc provisioning")
	}
	if cli.items[0].Source.Kind != cxt.SourceAdHocNode {
		t.Fatalf("source = %+v", cli.items[0].Source)
	}
}

// Neither submission path writes to the caller's query: fleets parse each
// workload query once and submit the same *Query from many phones and
// lanes, which is safe only because the factory clones what it keeps.
func TestSubmissionLeavesCallerQueryUnchanged(t *testing.T) {
	b := newBed(t, WithAnswerCache(true),
		WithQoS(qos.Config{Enabled: true, Rate: 1, Burst: 1, QueueCap: 10, MaxActive: 2}))
	b.seedRepoTemp(21.5, 0, cxt.Source{Kind: cxt.SourceAdHocNode, Address: "peer"})
	b.publishPeerTemp(14.0)
	b.storeInfra(cxt.TypeTemperature, 18)
	texts := []string{
		"SELECT temperature FROM intSensor DURATION 2 min EVERY 10 sec",
		"SELECT temperature FROM intSensor DURATION 2 min EVENT temperature>25",
		"SELECT temperature FROM adHocNetwork(all,1) DURATION 2 min EVERY 10 sec",
		"SELECT temperature FROM extInfra FRESHNESS 1 min DURATION 30 sec",
		"SELECT temperature FRESHNESS 1 min DURATION 10 min EVERY 10 sec",
		"SELECT location DURATION 2 min EVERY 10 sec",
	}
	var subs []*Subscription
	var submitted, wants []*query.Query
	for _, text := range texts {
		q := query.MustParse(text)
		want := q.Clone()
		submitted, wants = append(submitted, q), append(wants, want)
		for _, multi := range []bool{false, true} {
			var sub *Subscription
			var err error
			if multi {
				sub, err = b.factory.ProcessCxtQueryMulti(q, &testClient{})
			} else {
				sub, err = b.factory.ProcessCxtQuery(q, &testClient{})
			}
			if err == nil {
				subs = append(subs, sub)
			}
			if !reflect.DeepEqual(q, want) {
				t.Fatalf("%q (multi=%v): submission changed the caller's query:\n%+v\nwant\n%+v", text, multi, q, want)
			}
		}
		b.clk.Advance(20 * time.Second)
		if !reflect.DeepEqual(q, want) {
			t.Fatalf("%q: running the query changed the caller's copy", text)
		}
	}
	if len(subs) == 0 {
		t.Fatal("no submission succeeded")
	}
	for _, sub := range subs {
		sub.Cancel()
	}
	b.clk.Advance(3 * time.Minute)
	for i, q := range submitted {
		if !reflect.DeepEqual(q, wants[i]) {
			t.Errorf("%q: cancellation changed the caller's copy", texts[i])
		}
	}
}
