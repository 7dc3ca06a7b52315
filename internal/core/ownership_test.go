package core

import (
	"reflect"
	"testing"
	"time"

	"contory/internal/cxt"
	"contory/internal/query"
)

// sharedQueries returns every query the factory holds for its live
// queries: the factory's own copies, and each facade stream's merged query
// (the one its provider holds: the facade hands it over at creation and on
// every UpdateQuery) and subscribers.
func sharedQueries(f *Factory) []*query.Query {
	var out []*query.Query
	f.mu.Lock()
	for _, aq := range f.queries {
		out = append(out, aq.q)
	}
	f.mu.Unlock()
	for _, m := range allMechanisms {
		fac := f.Facade(m)
		fac.mu.Lock()
		for _, mg := range fac.managed {
			out = append(out, mg.merged)
			for _, s := range mg.subs {
				out = append(out, s.q)
			}
		}
		fac.mu.Unlock()
	}
	return out
}

// The middleware copies a submitted query once and never writes that copy
// or any query it shares afterwards: merge, UpdateQuery, narrowing on
// cancel, delivery and expiry leave every query it holds, and the caller's,
// equal to a fresh parse.
func TestSharedQueriesStayUnwritten(t *testing.T) {
	const src = "SELECT temperature FROM extInfra WHERE accuracy<=0.5 FRESHNESS 30 sec DURATION 2 min EVERY 10 sec"
	fresh := query.MustParse(src)
	unchanged := func(q *query.Query) bool {
		c := q.Clone()
		c.ID = ""
		return reflect.DeepEqual(c, fresh)
	}

	b := newBed(t)
	peer := NewFactory(b.peer)
	factories := map[string]*Factory{"phone": b.factory, "peer": peer}
	check := func(step string) (held int) {
		t.Helper()
		for name, f := range factories {
			for _, q := range sharedQueries(f) {
				if !unchanged(q) {
					t.Fatalf("%s: %s holds %q, want %q", step, name, q.String(), fresh.String())
				}
				held++
			}
		}
		return held
	}
	b.store = append(b.store, cxt.Item{Type: cxt.TypeTemperature, Value: 17.0,
		Timestamp: b.clk.Now(), Meta: cxt.Metadata{Accuracy: 0.2}})

	q := query.MustParse(src)
	var subs []*Subscription
	clients := []*testClient{{}, {}, {}, {}}
	for i, f := range []*Factory{b.factory, b.factory, b.factory, peer} {
		sub, err := f.ProcessCxtQuery(q, clients[i])
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	if _, merged := b.factory.Facade(MechanismInfra).Stats(); merged != 2 {
		t.Fatalf("phone merges = %d, want 2", merged)
	}
	if check("after submit") == 0 {
		t.Fatal("the factories hold no queries")
	}

	for i := 0; i < 3; i++ {
		b.store = append(b.store, cxt.Item{Type: cxt.TypeTemperature, Value: float64(20 + i),
			Timestamp: b.clk.Now(), Meta: cxt.Metadata{Accuracy: 0.2}})
		b.clk.Advance(10 * time.Second)
		check("after delivery")
	}
	for i, c := range clients {
		if len(c.items) == 0 {
			t.Fatalf("client %d received nothing", i)
		}
	}
	subs[1].Cancel() // narrows the phone's shared stream
	check("after cancel")
	b.clk.Advance(3 * time.Minute)
	if n := check("after expiry"); n != 0 {
		t.Fatalf("the factories hold %d queries after every lifetime ended", n)
	}
	for i, sub := range subs {
		if sub.Active() {
			t.Fatalf("subscription %d still active after its lifetime", i)
		}
	}
	if !unchanged(q) || q.ID != "" {
		t.Fatalf("caller's query became %q (id %q)", q.String(), q.ID)
	}
}
