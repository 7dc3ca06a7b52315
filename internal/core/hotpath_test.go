package core

import (
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"contory/internal/cxt"
	"contory/internal/metrics"
	"contory/internal/provider"
	"contory/internal/query"
	"contory/internal/repo"
	"contory/internal/tracing"
	"contory/internal/vclock"
)

// lookupFixture is a factory whose repository holds a full list of
// temperature items, one per second, of which only the oldest has
// accuracy 0.1; the rest have 0.9. hit matches only that oldest item, miss
// matches none.
func lookupFixture() (f *Factory, hit, miss *query.Query) {
	clk := vclock.NewSimulator()
	r := repo.New(clk, 0)
	src := cxt.Source{Kind: cxt.SourceInfrastructure, Address: "infra"}
	for i := 0; i < repo.DefaultLocalCap; i++ {
		acc := 0.9
		if i == 0 {
			acc = 0.1
		}
		r.Store(cxt.Item{Type: cxt.TypeTemperature, Value: float64(i), Timestamp: clk.Now(),
			Source: src, Meta: cxt.Metadata{Accuracy: acc}})
		clk.Advance(time.Second)
	}
	f = &Factory{dev: &Device{Repo: r}}
	hit = query.MustParse("SELECT temperature FROM extInfra WHERE accuracy<=0.5 FRESHNESS 1 min DURATION 1 min")
	miss = query.MustParse("SELECT temperature FROM extInfra WHERE accuracy<0 FRESHNESS 1 min DURATION 1 min")
	return f, hit, miss
}

// A cache lookup walks the repository in place: neither a hit on the
// oldest of a full list nor a miss allocates.
func TestCacheLookupAllocs(t *testing.T) {
	f, hit, miss := lookupFixture()
	if it, ok := f.cacheLookup(hit, hit.Freshness); !ok || it.Value != 0.0 {
		t.Fatalf("hit lookup = %v, %v, want the oldest item", it, ok)
	}
	if it, ok := f.cacheLookup(miss, miss.Freshness); ok {
		t.Fatalf("miss lookup = %v, want none", it)
	}
	for name, q := range map[string]*query.Query{"hit": hit, "miss": miss} {
		if got := testing.AllocsPerRun(200, func() { f.cacheLookup(q, q.Freshness) }); got != 0 {
			t.Errorf("%s lookup allocates %v times, want 0", name, got)
		}
	}
}

// BenchmarkAnswerCacheLookup finds the oldest item of a full list.
func BenchmarkAnswerCacheLookup(b *testing.B) {
	f, hit, _ := lookupFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.cacheLookup(hit, hit.Freshness)
	}
}

// fanoutFixture is a facade with one provider stream shared by the given
// subscriber ids; deliveries only count.
func fanoutFixture(tb testing.TB, ids ...string) (fac *Facade, p *fakeProvider, delivered *int) {
	clk := vclock.NewSimulator()
	delivered = new(int)
	fac = newFacade(MechanismAdHoc, clk,
		func(id string, q *query.Query, sink provider.Sink, onDone provider.DoneFunc, span *tracing.Span) (provider.Provider, error) {
			p = &fakeProvider{id: id, q: q, sink: sink, onDone: onDone}
			return p, nil
		},
		func(string, cxt.Item) { *delivered++ },
		nil, metrics.NewRegistry(), "rig", nil)
	for _, id := range ids {
		if err := fac.Submit(id, tempQuery(10), true); err != nil {
			tb.Fatal(err)
		}
	}
	return fac, p, delivered
}

func fanoutItem() cxt.Item {
	return cxt.Item{Type: cxt.TypeTemperature, Value: 12.0, Timestamp: vclock.Epoch}
}

// A delivery reads the stream's subscriber list in place: it allocates
// nothing, for one subscriber or several.
func TestFacadeDeliveryAllocs(t *testing.T) {
	for _, ids := range [][]string{{"q-1"}, {"q-2", "q-10", "q-9"}} {
		_, p, delivered := fanoutFixture(t, ids...)
		it := fanoutItem()
		if got := testing.AllocsPerRun(200, func() { p.emit(it) }); got != 0 {
			t.Errorf("delivery to %v allocates %v times, want 0", ids, got)
		}
		if *delivered == 0 || *delivered%len(ids) != 0 {
			t.Errorf("delivered %d items to %v", *delivered, ids)
		}
	}
}

// Deliveries read the subscriber snapshot without the facade lock while
// other goroutines attach and detach subscribers.
func TestFacadeDeliveryConcurrentWithAttach(t *testing.T) {
	fac, p, delivered := fanoutFixture(t, "q-1")
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			p.emit(fanoutItem())
		}
	}()
	go func() {
		defer wg.Done()
		for i := 2; i < 100; i++ {
			id := "q-" + strconv.Itoa(i)
			if err := fac.Submit(id, tempQuery(10), true); err != nil {
				t.Error(err)
				return
			}
			fac.Cancel(id)
		}
	}()
	wg.Wait()
	if *delivered < 500 {
		t.Fatalf("delivered %d items, want at least one per emit", *delivered)
	}
	if _, subs, ok := fac.StreamInfo("q-1"); !ok || subs != 1 {
		t.Fatalf("stream of q-1 has %d subscribers (%v), want 1", subs, ok)
	}
}

// One stream shared by q-2, q-10 and q-9 delivers in byte-wise id order,
// as sort.Strings orders them: q-10, q-2, q-9.
func TestFacadeFanoutOrder(t *testing.T) {
	r := newFacadeRig(t)
	for _, id := range []string{"q-2", "q-10", "q-9"} {
		if err := r.fac.Submit(id, tempQuery(10), true); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.providers) != 1 {
		t.Fatalf("providers = %d, want one shared stream", len(r.providers))
	}
	r.providers[0].emit(fanoutItem())
	want := []string{"q-10", "q-2", "q-9"}
	if !reflect.DeepEqual(r.order, want) {
		t.Fatalf("delivery order = %v, want %v", r.order, want)
	}
	// Detaching the middle subscriber keeps the others in order.
	r.fac.Cancel("q-2")
	r.order = nil
	r.providers[0].emit(fanoutItem())
	if want := []string{"q-10", "q-9"}; !reflect.DeepEqual(r.order, want) {
		t.Fatalf("delivery order after detach = %v, want %v", r.order, want)
	}
}

// BenchmarkFacadeFanout delivers one item to a stream shared by three
// subscribers.
func BenchmarkFacadeFanout(b *testing.B) {
	_, p, _ := fanoutFixture(b, "q-2", "q-10", "q-9")
	it := fanoutItem()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.emit(it)
	}
}
