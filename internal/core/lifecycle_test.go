package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"contory/internal/cxt"
	"contory/internal/policy"
	"contory/internal/qos"
	"contory/internal/query"
	"contory/internal/refs"
	"contory/internal/tracing"
)

// withTestTracer traces every query of the factory under construction and
// hands the tracer back to the test.
func withTestTracer(out **tracing.Tracer) Option {
	return func(f *Factory) {
		f.tracer = tracing.New(f.clock, tracing.Config{Seed: 1})
		*out = f.tracer
	}
}

// lifecycleTranscript renders what a scenario left behind, in order: the
// device's lifecycle ring (virtual offset, query, kind, mechanism, detail),
// the query/cache/QoS counters that moved and the gauges, and each query's
// root-span attributes.
func lifecycleTranscript(b *bed, tr *tracing.Tracer, start time.Time) (events, counters, roots []string) {
	for _, ev := range b.factory.Metrics().Events().Events() {
		events = append(events, fmt.Sprintf("+%v %s %s %s %q",
			ev.At.Sub(start), strings.TrimPrefix(ev.Query, "phone/"), ev.Kind, ev.Mechanism, ev.Detail))
	}
	lifecycle := func(name string) bool {
		for _, p := range []string{"core.query.", "core.cache.", "qos."} {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	snap := b.factory.Metrics().Snapshot()
	for _, c := range snap.Counters {
		if lifecycle(c.Name) && c.Value != 0 {
			counters = append(counters, fmt.Sprintf("%s=%d", c.Name, c.Value))
		}
	}
	for _, g := range snap.Gauges {
		if lifecycle(g.Name) {
			counters = append(counters, fmt.Sprintf("%s=%g", g.Name, g.Value))
		}
	}
	tr.Flush()
	for _, tv := range tr.Store().Traces() {
		for _, sv := range tv.Spans {
			if sv.Parent != 0 {
				continue
			}
			attrs := make([]string, 0, len(sv.Attrs))
			for _, a := range sv.Attrs {
				attrs = append(attrs, a.Key+"="+a.Value)
			}
			roots = append(roots, strings.TrimPrefix(tv.Name, "phone/")+": "+strings.Join(attrs, " "))
		}
	}
	return events, counters, roots
}

func mustSubmit(t *testing.T, b *bed, text string, cli Client) *Subscription {
	t.Helper()
	sub, err := b.factory.ProcessCxtQuery(query.MustParse(text), cli)
	if err != nil {
		t.Fatalf("submit %q: %v", text, err)
	}
	return sub
}

func (b *bed) storeInfra(typ cxt.Type, v float64) {
	b.store = append(b.store, cxt.Item{Type: typ, Value: v, Timestamp: b.clk.Now(),
		Source: cxt.Source{Kind: cxt.SourceInfrastructure, Address: "infra"}})
}

// TestLifecycleTranscript pins, for every path a query can take through the
// ContextFactory, the exact sequence of lifecycle reports: ring events,
// counters and root-span attributes. Each transition has one report site,
// so a change to that site shows up here on every path at once.
func TestLifecycleTranscript(t *testing.T) {
	cases := []struct {
		name     string
		opts     []Option
		run      func(t *testing.T, b *bed)
		events   []string
		counters []string
		roots    []string
	}{
		{
			name: "live submit",
			run: func(t *testing.T, b *bed) {
				mustSubmit(t, b, "SELECT location FROM intSensor DURATION 1 min EVERY 30 sec", &testClient{})
				b.clk.Advance(90 * time.Second)
			},
			events: []string{
				`+0s q-1 submitted  "location"`,
				`+0s q-1 assigned intSensor ""`,
				`+30s q-1 delivered intSensor "location"`,
				`+1m0s q-1 expired intSensor ""`,
			},
			counters: []string{
				"core.query.assigned.intSensor=1",
				"core.query.expired=1",
				"core.query.items_delivered=1",
				"core.query.submitted=1",
				"core.query.active=0",
				"qos.pending=0",
			},
			roots: []string{
				"q-1: select=location duration=1 min mech=intSensor outcome=expired",
			},
		},
		{
			name: "multi submit",
			run: func(t *testing.T, b *bed) {
				b.dev.Internal.Register(refs.FuncSensor{
					SensorName: "thermo", CxtType: cxt.TypeTemperature,
					ReadFunc: func(now time.Time) (cxt.Item, error) {
						return cxt.Item{Type: cxt.TypeTemperature, Value: 20, Timestamp: now}, nil
					},
				})
				b.publishPeerTemp(24)
				sub, err := b.factory.ProcessCxtQueryMulti(
					query.MustParse("SELECT temperature DURATION 5 min EVERY 20 sec"),
					&testClient{}, MechanismLocal, MechanismAdHoc)
				if err != nil {
					t.Fatal(err)
				}
				b.clk.Advance(30 * time.Second)
				sub.Cancel()
			},
			events: []string{
				`+0s q-1 submitted  "temperature"`,
				`+0s q-1 assigned intSensor ""`,
				`+0s q-1 assigned adHocNetwork ""`,
				`+20s q-1 delivered intSensor "temperature"`,
				`+22.245576197s q-1 delivered intSensor "temperature"`,
				`+30s q-1 cancelled intSensor ""`,
			},
			counters: []string{
				"core.query.assigned.adHocNetwork=1",
				"core.query.assigned.intSensor=1",
				"core.query.cancelled=1",
				"core.query.items_delivered=2",
				"core.query.submitted=1",
				"core.query.active=0",
				"qos.pending=0",
			},
			roots: []string{
				"q-1: select=temperature multi=true mech=intSensor outcome=cancelled",
			},
		},
		{
			name: "cache hit, refresh, promotion",
			opts: []Option{WithAnswerCache(true)},
			run: func(t *testing.T, b *bed) {
				b.publishPeerTemp(15)
				b.seedRepoTemp(21.5, 25*time.Second, cxt.Source{Kind: cxt.SourceAdHocNode, Address: "peer"})
				sub := mustSubmit(t, b, "SELECT temperature FROM adHocNetwork(all,1) FRESHNESS 1 min DURATION 10 min EVERY 10 sec", &testClient{})
				b.clk.Advance(45 * time.Second)
				sub.Cancel()
			},
			events: []string{
				`+0s q-1 submitted  "temperature"`,
				`+0s q-1 assigned cache ""`,
				`+0s q-1 delivered cache "temperature"`,
				`+10s q-1 delivered cache "temperature"`,
				`+20s q-1 delivered cache "temperature"`,
				`+30s q-1 assigned adHocNetwork "promoted from cache: cache stale"`,
				`+42.245576197s q-1 delivered adHocNetwork "temperature"`,
				`+45s q-1 cancelled adHocNetwork ""`,
			},
			counters: []string{
				"core.cache.hits=3",
				"core.cache.promotions=1",
				"core.cache.refreshes=2",
				"core.query.assigned.adHocNetwork=1",
				"core.query.assigned.cache=1",
				"core.query.cancelled=1",
				"core.query.items_delivered=4",
				"core.query.submitted=1",
				"core.query.active=0",
				"qos.pending=0",
			},
			roots: []string{
				"q-1: select=temperature duration=10 min mech=cache outcome=cancelled",
			},
		},
		{
			name: "qos admit",
			opts: []Option{WithQoS(qos.Config{Enabled: true, Rate: 1, Burst: 1, QueueCap: 10, MaxActive: 4})},
			run: func(t *testing.T, b *bed) {
				b.storeInfra(cxt.TypeTemperature, 21)
				mustSubmit(t, b, "SELECT temperature FROM extInfra DURATION 1 min", &testClient{decision: true})
				b.clk.Advance(90 * time.Second)
			},
			events: []string{
				`+0s q-1 submitted  "temperature"`,
				`+0s q-1 assigned extInfra ""`,
				`+1.627917872s q-1 delivered extInfra "temperature"`,
				`+1.627917872s q-1 expired extInfra ""`,
			},
			counters: []string{
				"core.query.assigned.extInfra=1",
				"core.query.expired=1",
				"core.query.items_delivered=1",
				"core.query.submitted=1",
				"qos.admitted=1",
				"core.query.active=0",
				"qos.pending=0",
			},
			roots: []string{
				"q-1: select=temperature duration=1 min mech=extInfra outcome=expired",
			},
		},
		{
			name: "qos defer then release",
			opts: []Option{WithQoS(qos.Config{Enabled: true, Rate: 1, Burst: 1, QueueCap: 10, MaxActive: 4})},
			run: func(t *testing.T, b *bed) {
				b.storeInfra(cxt.TypeTemperature, 21)
				b.storeInfra(cxt.TypeHumidity, 40)
				mustSubmit(t, b, "SELECT temperature FROM extInfra DURATION 1 min", &testClient{decision: true})
				mustSubmit(t, b, "SELECT humidity FROM extInfra DURATION 1 min", &testClient{decision: true})
				b.clk.Advance(90 * time.Second)
			},
			events: []string{
				`+0s q-1 submitted  "temperature"`,
				`+0s q-1 assigned extInfra ""`,
				`+0s q-2 submitted  "humidity"`,
				`+0s q-2 assigned pending "deferred 1s"`,
				`+1s q-2 assigned extInfra "released from qos queue"`,
				`+1.627917872s q-1 delivered extInfra "temperature"`,
				`+1.627917872s q-1 expired extInfra ""`,
				`+3.555293597s q-2 delivered extInfra "humidity"`,
				`+3.555293597s q-2 expired extInfra ""`,
			},
			counters: []string{
				"core.query.assigned.extInfra=2",
				"core.query.expired=2",
				"core.query.items_delivered=2",
				"core.query.submitted=2",
				"qos.admitted=1",
				"qos.deferred=1",
				"qos.released=1",
				"core.query.active=0",
				"qos.pending=0",
			},
			roots: []string{
				"q-2: select=humidity duration=1 min mech=extInfra outcome=expired",
				"q-1: select=temperature duration=1 min mech=extInfra outcome=expired",
			},
		},
		{
			name: "qos degrade",
			opts: []Option{WithAnswerCache(true), WithCacheTTL(10 * time.Minute),
				WithQoS(qos.Config{Enabled: true, Rate: 1, Burst: 1, QueueCap: 2, MaxActive: 1})},
			run: func(t *testing.T, b *bed) {
				b.dev.Repo.Store(cxt.Item{Type: cxt.TypeTemperature, Value: 19.5, Timestamp: b.clk.Now(),
					Source: cxt.Source{Kind: cxt.SourceInfrastructure, Address: "infra"}})
				b.clk.Advance(30 * time.Second)
				b.storeInfra(cxt.TypeTemperature, 22)
				for i := 0; i < 3; i++ {
					mustSubmit(t, b, "SELECT temperature FROM extInfra FRESHNESS 5 sec DURATION 1 min", &testClient{decision: true})
				}
				b.clk.Advance(90 * time.Second)
			},
			events: []string{
				`+30s q-1 submitted  "temperature"`,
				`+30s q-1 assigned extInfra ""`,
				`+30s q-2 submitted  "temperature"`,
				`+30s q-2 assigned pending "deferred 1s"`,
				`+30s q-3 submitted  "temperature"`,
				`+30s q-3 assigned cache "degraded: queue pressure"`,
				`+30s q-3 delivered cache "temperature"`,
				`+30s q-3 expired cache ""`,
				`+31.627917872s q-1 delivered extInfra "temperature"`,
				`+31.627917872s q-1 expired extInfra ""`,
				`+31.627917872s q-2 assigned extInfra "released from qos queue"`,
				`+33.710211469s q-2 delivered extInfra "temperature"`,
				`+33.710211469s q-2 expired extInfra ""`,
			},
			counters: []string{
				"core.cache.hits=1",
				"core.cache.misses=3",
				"core.query.assigned.cache=1",
				"core.query.assigned.extInfra=2",
				"core.query.expired=3",
				"core.query.items_delivered=3",
				"core.query.submitted=3",
				"qos.admitted=1",
				"qos.deferred=1",
				"qos.degraded=1",
				"qos.released=1",
				"core.query.active=0",
				"qos.pending=0",
			},
			roots: []string{
				"q-3: select=temperature duration=1 min mech=cache outcome=expired",
				"q-2: select=temperature duration=1 min mech=extInfra outcome=expired",
				"q-1: select=temperature duration=1 min mech=extInfra outcome=expired",
			},
		},
		{
			name: "qos reject",
			opts: []Option{WithQoS(qos.Config{Enabled: true, Rate: 1, Burst: 1, QueueCap: 1, MaxActive: 1})},
			run: func(t *testing.T, b *bed) {
				b.storeInfra(cxt.TypeTemperature, 21)
				q := "SELECT temperature FROM extInfra DURATION 1 min"
				mustSubmit(t, b, q, &testClient{decision: true})
				mustSubmit(t, b, q, &testClient{decision: true})
				if _, err := b.factory.ProcessCxtQuery(query.MustParse(q), &testClient{}); !errors.Is(err, qos.ErrRejected) {
					t.Fatalf("third submission = %v, want qos.ErrRejected", err)
				}
				b.clk.Advance(90 * time.Second)
			},
			events: []string{
				`+0s q-1 submitted  "temperature"`,
				`+0s q-1 assigned extInfra ""`,
				`+0s q-2 submitted  "temperature"`,
				`+0s q-2 assigned pending "deferred 1s"`,
				`+0s q-3 submitted  "temperature"`,
				`+1.627917872s q-1 delivered extInfra "temperature"`,
				`+1.627917872s q-1 expired extInfra ""`,
				`+1.627917872s q-2 assigned extInfra "released from qos queue"`,
				`+3.710211469s q-2 delivered extInfra "temperature"`,
				`+3.710211469s q-2 expired extInfra ""`,
			},
			counters: []string{
				"core.query.assigned.extInfra=2",
				"core.query.expired=2",
				"core.query.items_delivered=2",
				"core.query.rejected=1",
				"core.query.submitted=3",
				"qos.admitted=1",
				"qos.deferred=1",
				"qos.rejected=1",
				"qos.released=1",
				"core.query.active=0",
				"qos.pending=0",
			},
			roots: []string{
				"q-3: select=temperature duration=1 min error=core: query q-3 (standard class, queue full): qos: admission rejected",
				"q-2: select=temperature duration=1 min mech=extInfra outcome=expired",
				"q-1: select=temperature duration=1 min mech=extInfra outcome=expired",
			},
		},
		{
			name: "qos shed on low power",
			opts: []Option{WithQoS(qos.Config{Enabled: true, Rate: 100, Burst: 100, QueueCap: 10, MaxActive: 2})},
			run: func(t *testing.T, b *bed) {
				for i := 0; i < 2; i++ {
					mustSubmit(t, b, "SELECT location FROM intSensor DURATION 1 hour EVERY 1 min", &testClient{})
					b.clk.Advance(time.Second)
				}
				b.dev.Monitor.SetBattery(0.1)
			},
			events: []string{
				`+0s q-1 submitted  "location"`,
				`+0s q-1 assigned intSensor ""`,
				`+1s q-2 submitted  "location"`,
				`+1s q-2 assigned intSensor ""`,
				`+2s q-1 cancelled intSensor ""`,
			},
			counters: []string{
				"core.query.assigned.intSensor=2",
				"core.query.cancelled=1",
				"core.query.submitted=2",
				"qos.admitted=2",
				"qos.shed=1",
				"core.query.active=1",
				"qos.pending=0",
			},
			roots: []string{
				"q-1: select=location duration=1 hour mech=intSensor outcome=cancelled",
				"q-2: select=location duration=1 hour mech=intSensor",
			},
		},
		{
			name: "qos shed degrades a live query to cache",
			opts: []Option{WithAnswerCache(true), WithCacheTTL(10 * time.Minute),
				WithQoS(qos.Config{Enabled: true, Rate: 100, Burst: 100, QueueCap: 10, MaxActive: 2})},
			run: func(t *testing.T, b *bed) {
				b.dev.Repo.Store(cxt.Item{Type: cxt.TypeTemperature, Value: 19.5, Timestamp: b.clk.Now(),
					Source: cxt.Source{Kind: cxt.SourceInfrastructure, Address: "infra"}})
				b.clk.Advance(30 * time.Second)
				b.storeInfra(cxt.TypeTemperature, 22)
				for i := 0; i < 2; i++ {
					mustSubmit(t, b, "SELECT temperature FROM extInfra FRESHNESS 5 sec DURATION 3 min EVERY 1 min", &testClient{decision: true})
				}
				b.clk.Advance(10 * time.Second)
				b.dev.Monitor.SetBattery(0.1)
				b.clk.Advance(90 * time.Second)
			},
			events: []string{
				`+30s q-1 submitted  "temperature"`,
				`+30s q-1 assigned extInfra ""`,
				`+30s q-2 submitted  "temperature"`,
				`+30s q-2 assigned extInfra ""`,
				`+40s q-1 assigned cache "degraded from extInfra: lowPower"`,
				`+40s q-1 delivered cache "temperature"`,
				`+1m40s q-1 delivered cache "temperature"`,
			},
			counters: []string{
				"core.cache.hits=2",
				"core.cache.misses=2",
				"core.cache.refreshes=1",
				"core.query.assigned.cache=1",
				"core.query.assigned.extInfra=2",
				"core.query.items_delivered=2",
				"core.query.submitted=2",
				"qos.admitted=2",
				"qos.degraded=1",
				"core.query.active=2",
				"qos.pending=0",
			},
			roots: []string{
				"q-2: select=temperature duration=3 min mech=extInfra",
				"q-1: select=temperature duration=3 min mech=extInfra",
			},
		},
		{
			name: "reduceLoad shed",
			run: func(t *testing.T, b *bed) {
				mustSubmit(t, b, "SELECT location FROM intSensor DURATION 1 hour EVERY 10 sec", &testClient{})
				b.clk.Advance(time.Second)
				mustSubmit(t, b, "SELECT speed FROM intSensor DURATION 1 hour EVERY 10 sec", &testClient{})
				if err := b.factory.AddControlPolicy(policy.Rule{
					Name:      "overload",
					Condition: policy.Cond("activeQueries", policy.OpMoreThan, "1"),
					Action:    policy.ReduceLoad,
				}); err != nil {
					t.Fatal(err)
				}
				b.factory.EvaluatePolicies()
			},
			events: []string{
				`+0s q-1 submitted  "location"`,
				`+0s q-1 assigned intSensor ""`,
				`+1s q-2 submitted  "speed"`,
				`+1s q-2 assigned intSensor ""`,
				`+1s q-1 cancelled intSensor ""`,
			},
			counters: []string{
				"core.query.assigned.intSensor=2",
				"core.query.cancelled=1",
				"core.query.submitted=2",
				"core.query.active=1",
				"qos.pending=0",
			},
			roots: []string{
				"q-1: select=location duration=1 hour mech=intSensor outcome=cancelled",
				"q-2: select=speed duration=1 hour mech=intSensor",
			},
		},
		{
			name: "no mechanism",
			run: func(t *testing.T, b *bed) {
				// Unsupported: rejected before the query is numbered.
				if _, err := b.factory.ProcessCxtQuery(
					query.MustParse("SELECT batteryLevel FROM intSensor DURATION 1 min"), &testClient{}); !errors.Is(err, ErrNoMechanism) {
					t.Fatalf("unsupported = %v, want ErrNoMechanism", err)
				}
				// Supported but down: numbered, traced, then rejected.
				b.dev.Monitor.ReportFailure("umts", "test")
				if _, err := b.factory.ProcessCxtQuery(
					query.MustParse("SELECT temperature FROM extInfra DURATION 1 min"), &testClient{}); err == nil {
					t.Fatal("query on a failed mechanism accepted")
				}
				if _, err := b.factory.ProcessCxtQueryMulti(
					query.MustParse("SELECT temperature DURATION 1 min"), &testClient{}, MechanismLocal); err == nil {
					t.Fatal("multi query on an unsupported mechanism accepted")
				}
			},
			events: []string{
				`+0s q-1 submitted  "temperature"`,
				`+0s q-2 submitted  "temperature"`,
			},
			counters: []string{
				"core.query.rejected=2",
				"core.query.submitted=2",
				"core.query.active=0",
				"qos.pending=0",
			},
			roots: []string{
				"q-2: select=temperature multi=true error=core: intSensor unavailable",
				"q-1: select=temperature duration=1 min error=core: extInfra unavailable",
			},
		},
		{
			name: "failover switch",
			run: func(t *testing.T, b *bed) {
				b.peer.WiFi.PublishTag("location", cxt.Item{
					Type: cxt.TypeLocation, Value: cxt.Fix{Lat: 60.17, Lon: 24.94},
					Timestamp: b.clk.Now(), Lifetime: time.Hour,
				}, 0)
				sub := mustSubmit(t, b, "SELECT location DURATION 20 min EVERY 20 sec", &testClient{})
				b.clk.Advance(30 * time.Second)
				b.gpsDev.SetFailed(true)
				b.clk.Advance(45 * time.Second)
				sub.Cancel()
			},
			events: []string{
				`+0s q-1 submitted  "location"`,
				`+0s q-1 assigned intSensor ""`,
				`+20s q-1 delivered intSensor "location"`,
				`+32.55s q-1 switched adHocNetwork "from intSensor: failure of bt-gps-1"`,
				`+54.795576197s q-1 delivered adHocNetwork "location"`,
				`+1m13.28830293s q-1 delivered adHocNetwork "location"`,
				`+1m15s q-1 cancelled adHocNetwork ""`,
			},
			counters: []string{
				"core.query.assigned.intSensor=1",
				"core.query.cancelled=1",
				"core.query.items_delivered=3",
				"core.query.submitted=1",
				"core.query.switched=1",
				"core.query.active=0",
				"qos.pending=0",
			},
			roots: []string{
				"q-1: select=location duration=20 min mech=intSensor outcome=cancelled",
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var tr *tracing.Tracer
			b := newBed(t, append(c.opts, withTestTracer(&tr))...)
			start := b.clk.Now()
			c.run(t, b)
			events, counters, roots := lifecycleTranscript(b, tr, start)
			for _, d := range []struct {
				what      string
				got, want []string
			}{
				{"ring events", events, c.events},
				{"counters", counters, c.counters},
				{"root span attributes", roots, c.roots},
			} {
				if strings.Join(d.got, "\n") != strings.Join(d.want, "\n") {
					t.Errorf("%s:\n got:\n\t%s\nwant:\n\t%s", d.what,
						strings.Join(d.got, "\n\t"), strings.Join(d.want, "\n\t"))
				}
			}
		})
	}
}
