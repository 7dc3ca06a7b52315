package core

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"contory/internal/cxt"
	"contory/internal/energy"
	"contory/internal/qos"
	"contory/internal/query"
)

// TestShedVictimSelection is the table-driven regression test for the
// reduceLoad fix: the shed victim is the query with the highest measured
// energy per delivered item, ties break to the oldest submission and then
// to the numerically smallest id — never newest-first, and never by the
// string ordering that ranks "q-9" above "q-10".
func TestShedVictimSelection(t *testing.T) {
	cases := []struct {
		name      string
		delivered []int // per query, in submission order
		want      string
	}{
		{"equal cost ties to oldest, never newest", []int{0, 0, 0}, "q-1"},
		{"highest joules per delivered item wins", []int{3, 0, 1}, "q-2"},
		{"numeric id ordering on full tie",
			[]int{5, 5, 5, 5, 5, 5, 5, 5, 0, 0, 0, 0}, "q-9"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := newBed(t)
			start := b.clk.Now()
			clients := make([]*testClient, len(c.delivered))
			for i := range clients {
				clients[i] = &testClient{}
				_, err := b.factory.ProcessCxtQuery(query.MustParse(
					"SELECT location FROM intSensor DURATION 1 hour EVERY 30 min"), clients[i])
				if err != nil {
					t.Fatal(err)
				}
			}
			// Charge measurable energy over every query's lifetime so the
			// joules-per-item division separates the delivery counts.
			b.dev.Node.Timeline().AddWindowAt("test-load", energy.Milliwatts(500), start, 10*time.Second)
			b.clk.Advance(10 * time.Second)
			b.factory.mu.Lock()
			for i, d := range c.delivered {
				b.factory.queries["q-"+strconv.Itoa(i+1)].delivered = int32(d)
			}
			b.factory.mu.Unlock()

			b.factory.enforceReduceLoad("test")

			for _, id := range b.factory.ActiveQueries() {
				if id == c.want {
					t.Fatalf("victim %s still active", c.want)
				}
			}
			if got := len(b.factory.ActiveQueries()); got != len(c.delivered)-1 {
				t.Fatalf("%d queries active after shed, want %d", got, len(c.delivered)-1)
			}
			wantIdx := qidNum(c.want) - 1
			if len(clients[wantIdx].errs) == 0 {
				t.Fatal("shed victim's client not informed")
			}
		})
	}
}

// TestQoSDeferAndRelease checks the defer → weighted release path: the
// second submission exceeds the client's burst, parks on MechanismPending,
// and is released into live provisioning once its token is earned.
func TestQoSDeferAndRelease(t *testing.T) {
	b := newBed(t, WithQoS(qos.Config{Enabled: true, Rate: 1, Burst: 1, QueueCap: 10, MaxActive: 4}))
	b.store = append(b.store,
		cxt.Item{Type: cxt.TypeTemperature, Value: 21.0, Timestamp: b.clk.Now(),
			Source: cxt.Source{Kind: cxt.SourceInfrastructure, Address: "infra"}},
		cxt.Item{Type: cxt.TypeHumidity, Value: 40.0, Timestamp: b.clk.Now(),
			Source: cxt.Source{Kind: cxt.SourceInfrastructure, Address: "infra"}},
	)
	c1, c2 := &testClient{decision: true}, &testClient{decision: true}
	if _, err := b.factory.ProcessCxtQuery(
		query.MustParse("SELECT temperature FROM extInfra DURATION 1 min"), c1); err != nil {
		t.Fatal(err)
	}
	sub2, err := b.factory.ProcessCxtQuery(
		query.MustParse("SELECT humidity FROM extInfra DURATION 1 min"), c2)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := sub2.Mechanism(); err != nil || m != MechanismPending {
		t.Fatalf("second burst query on %v (%v), want pending", m, err)
	}
	b.clk.Advance(30 * time.Second)
	if len(c1.items) == 0 {
		t.Fatal("admitted query received nothing")
	}
	if len(c2.items) == 0 {
		t.Fatal("deferred query never released/served")
	}
	reg := b.factory.Metrics().Snapshot()
	counts := map[string]int64{}
	for _, c := range reg.Counters {
		counts[c.Name] = c.Value
	}
	if counts["qos.admitted"] != 1 || counts["qos.deferred"] != 1 || counts["qos.released"] != 1 {
		t.Fatalf("qos counters = admitted %d deferred %d released %d, want 1/1/1",
			counts["qos.admitted"], counts["qos.deferred"], counts["qos.released"])
	}
}

// TestQoSRejectSentinel checks that a full pending queue rejects with the
// matchable sentinel error.
func TestQoSRejectSentinel(t *testing.T) {
	b := newBed(t, WithQoS(qos.Config{Enabled: true, Rate: 1, Burst: 1, QueueCap: 1, MaxActive: 1}))
	b.store = append(b.store, cxt.Item{Type: cxt.TypeTemperature, Value: 21.0,
		Timestamp: b.clk.Now(), Source: cxt.Source{Kind: cxt.SourceInfrastructure, Address: "infra"}})
	cli := &testClient{decision: true}
	q := "SELECT temperature FROM extInfra DURATION 1 min"
	if _, err := b.factory.ProcessCxtQuery(query.MustParse(q), cli); err != nil {
		t.Fatal(err)
	}
	if _, err := b.factory.ProcessCxtQuery(query.MustParse(q), cli); err != nil {
		t.Fatalf("deferred submission errored: %v", err)
	}
	_, err := b.factory.ProcessCxtQuery(query.MustParse(q), cli)
	if !errors.Is(err, qos.ErrRejected) {
		t.Fatalf("queue-full submission = %v, want qos.ErrRejected", err)
	}
}

// TestQoSDegradeToStaleCache checks graceful shedding under queue
// pressure: with the answer cache holding a stale-but-TTL-servable item,
// an overloaded admission degrades to a cache answer instead of queueing
// or rejecting.
func TestQoSDegradeToStaleCache(t *testing.T) {
	b := newBed(t,
		WithAnswerCache(true), WithCacheTTL(10*time.Minute),
		WithQoS(qos.Config{Enabled: true, Rate: 1, Burst: 1, QueueCap: 2, MaxActive: 1}))
	b.dev.Repo.Store(cxt.Item{Type: cxt.TypeTemperature, Value: 19.5,
		Timestamp: b.clk.Now(), Source: cxt.Source{Kind: cxt.SourceInfrastructure, Address: "infra"}})
	b.clk.Advance(30 * time.Second) // stale for FRESHNESS 5s, inside the TTL
	b.store = append(b.store, cxt.Item{Type: cxt.TypeTemperature, Value: 22.0,
		Timestamp: b.clk.Now(), Source: cxt.Source{Kind: cxt.SourceInfrastructure, Address: "infra"}})

	q := "SELECT temperature FROM extInfra FRESHNESS 5 sec DURATION 1 min"
	c1, c2, c3 := &testClient{decision: true}, &testClient{decision: true}, &testClient{decision: true}
	if _, err := b.factory.ProcessCxtQuery(query.MustParse(q), c1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.factory.ProcessCxtQuery(query.MustParse(q), c2); err != nil {
		t.Fatal(err)
	}
	sub3, err := b.factory.ProcessCxtQuery(query.MustParse(q), c3)
	if err != nil {
		t.Fatalf("overloaded degradable submission errored: %v", err)
	}
	st := sub3.Stats()
	if !st.CacheServed {
		t.Fatal("overloaded submission not degraded to cache service")
	}
	b.clk.Advance(10 * time.Millisecond)
	if len(c3.items) != 1 || c3.items[0].Value != 19.5 {
		t.Fatalf("degraded query items = %v, want the stale 19.5 answer", c3.items)
	}
	if v := b.factory.Metrics().Snapshot(); func() int64 {
		for _, c := range v.Counters {
			if c.Name == "qos.degraded" {
				return c.Value
			}
		}
		return 0
	}() != 1 {
		t.Fatal("qos.degraded counter not incremented")
	}
}

// TestQoSShedOnLowPower checks the monitor-fed overload reaction: low
// battery halves the live-slot budget and sheds the costliest queries
// back to it, informing their clients.
func TestQoSShedOnLowPower(t *testing.T) {
	b := newBed(t, WithQoS(qos.Config{Enabled: true, Rate: 100, Burst: 100, QueueCap: 10, MaxActive: 4}))
	clients := make([]*testClient, 4)
	for i := range clients {
		clients[i] = &testClient{}
		if _, err := b.factory.ProcessCxtQuery(query.MustParse(
			"SELECT location FROM intSensor DURATION 1 hour EVERY 1 min"), clients[i]); err != nil {
			t.Fatal(err)
		}
		b.clk.Advance(time.Second)
	}
	if got := len(b.factory.ActiveQueries()); got != 4 {
		t.Fatalf("%d active before low power, want 4", got)
	}
	b.dev.Monitor.SetBattery(0.1)
	if got := len(b.factory.ActiveQueries()); got != 2 {
		t.Fatalf("%d active after low power, want 2 (halved budget)", got)
	}
	// The two oldest (costliest, same delivery count) queries were shed.
	if len(clients[0].errs) == 0 || len(clients[1].errs) == 0 {
		t.Fatal("shed victims' clients not informed")
	}
	remaining := b.factory.ActiveQueries()
	if len(remaining) != 2 || remaining[0] != "q-3" || remaining[1] != "q-4" {
		t.Fatalf("remaining queries %v, want [q-3 q-4]", remaining)
	}
}

// A degraded answer waives FRESHNESS, so its staleness must be bounded by
// the type's TTL: with none, a stored item never qualifies, however old.
func TestDegradeNeedsTTLBound(t *testing.T) {
	b := newBed(t, WithAnswerCache(true))
	b.dev.Repo.Store(cxt.Item{Type: cxt.TypeTemperature, Value: 19.5,
		Timestamp: b.clk.Now(), Source: cxt.Source{Kind: cxt.SourceInfrastructure, Address: "infra"}})
	b.clk.Advance(6 * time.Hour)
	q := query.MustParse("SELECT temperature FROM extInfra FRESHNESS 20 sec DURATION 1 min")
	if b.factory.canDegradeToCache(q) {
		t.Fatal("a 6 h old answer qualifies for degradation with no TTL bound")
	}
	b.dev.Repo.SetTTL(cxt.TypeTemperature, 7*time.Hour)
	if !b.factory.canDegradeToCache(q) {
		t.Fatal("an answer inside the type's TTL does not qualify for degradation")
	}
}

// A degraded query whose type loses its TTL has no bounded answer left: its
// next refresh ends it instead of serving an unbounded stale item.
func TestDegradedRefreshNeedsTTLBound(t *testing.T) {
	b := newBed(t,
		WithAnswerCache(true),
		WithQoS(qos.Config{Enabled: true, Rate: 1, Burst: 1, QueueCap: 2, MaxActive: 1}))
	b.dev.Repo.SetTTL(cxt.TypeTemperature, 10*time.Minute)
	b.dev.Repo.Store(cxt.Item{Type: cxt.TypeTemperature, Value: 19.5,
		Timestamp: b.clk.Now(), Source: cxt.Source{Kind: cxt.SourceInfrastructure, Address: "infra"}})
	b.clk.Advance(30 * time.Second)

	q := "SELECT temperature FROM extInfra FRESHNESS 5 sec DURATION 5 min EVERY 10 sec"
	for i := 0; i < 2; i++ {
		if _, err := b.factory.ProcessCxtQuery(query.MustParse(q), &testClient{decision: true}); err != nil {
			t.Fatal(err)
		}
	}
	c3 := &testClient{decision: true}
	sub3, err := b.factory.ProcessCxtQuery(query.MustParse(q), c3)
	if err != nil {
		t.Fatal(err)
	}
	if !sub3.Stats().CacheServed {
		t.Fatal("overloaded submission not degraded to cache service")
	}
	b.clk.Advance(10 * time.Millisecond)
	if len(c3.items) != 1 {
		t.Fatalf("degraded query items = %v, want the stale answer", c3.items)
	}
	b.dev.Repo.SetTTL(cxt.TypeTemperature, 0)
	b.clk.Advance(10 * time.Second)
	if len(c3.items) != 1 || sub3.Active() || len(c3.errs) != 1 {
		t.Fatalf("after the TTL went: items %v, active %v, errors %v; want the query ended",
			c3.items, sub3.Active(), c3.errs)
	}
}
