package core

import (
	"math"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"
	"unsafe"

	"contory/internal/cxt"
	"contory/internal/fuego"
	"contory/internal/metrics"
	"contory/internal/provider"
	"contory/internal/qos"
	"contory/internal/query"
	"contory/internal/radio"
	"contory/internal/repo"
	"contory/internal/simnet"
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
		func(q *query.Query, sink provider.Sink, onDone provider.DoneFunc, span *tracing.Span) (provider.Provider, error) {
			p = &fakeProvider{q: q, sink: sink, onDone: onDone}
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

// countingClient counts what it receives, allocating nothing.
type countingClient struct{ items, errs int }

func (c *countingClient) ReceiveCxtItem(cxt.Item)  { c.items++ }
func (c *countingClient) InformError(string)       { c.errs++ }
func (c *countingClient) MakeDecision(string) bool { return true }

// submitFixture is a factory with the answer cache and QoS on whose phone
// reaches an infrastructure server over UMTS. The server answers every
// temperature request with one item stamped at the request, so the first
// answer is fresh, and its FRESHNESS bound has lapsed by the next
// submission: every submission misses the cache, passes admission and
// provisions live.
type submitFixture struct {
	clk *vclock.Simulator
	f   *Factory
	q   *query.Query
	cli *countingClient
}

func newSubmitFixture(tb testing.TB) *submitFixture {
	tb.Helper()
	clk := vclock.NewSimulator()
	nw := simnet.New(clk)
	if _, err := nw.AddNode("infra", simnet.Position{}); err != nil {
		tb.Fatal(err)
	}
	srv, err := fuego.NewServer(nw, "infra", radio.NewUMTS(100))
	if err != nil {
		tb.Fatal(err)
	}
	// The reply is boxed once and restamped in place, so the server side
	// allocates nothing of its own.
	items := []cxt.Item{{Type: cxt.TypeTemperature, Value: 12.0}}
	var reply any = items
	srv.HandleRequest(provider.InfraOpGetItem, func(fuego.Request) (any, error) {
		items[0].Timestamp = clk.Now()
		return reply, nil
	})
	dev, err := NewDevice(DeviceConfig{Network: nw, ID: "phone", InfraServer: "infra", Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if err := nw.Connect("phone", "infra", radio.MediumUMTS); err != nil {
		tb.Fatal(err)
	}
	fx := &submitFixture{
		clk: clk,
		f: NewFactory(dev, WithAnswerCache(true),
			WithQoS(qos.Config{Enabled: true, Rate: 1, Burst: 2, QueueCap: 4, MaxActive: 4})),
		q:   query.MustParse("SELECT temperature FROM extInfra FRESHNESS 2 sec DURATION 1 min"),
		cli: &countingClient{},
	}
	// Warm the maps, rings, free lists and buffers the lifecycle reuses.
	for i := 0; i < 200; i++ {
		fx.submit(tb)
	}
	return fx
}

// submit runs one query through its whole lifecycle: submission, cache
// miss, admission, provider start, one UMTS request and its answer, and
// the provider's completion, which expires the query.
func (fx *submitFixture) submit(tb testing.TB) {
	items := fx.cli.items
	in := fx.f.instr
	misses, admitted, expired := in.cacheMisses.Value(), in.qosAdmitted.Value(), in.expired.Value()
	if _, err := fx.f.ProcessCxtQuery(fx.q, fx.cli); err != nil {
		tb.Fatal(err)
	}
	fx.clk.Advance(5 * time.Second)
	if fx.cli.items != items+1 || fx.cli.errs != 0 || len(fx.f.queries) != 0 ||
		in.cacheMisses.Value() != misses+1 || in.qosAdmitted.Value() != admitted+1 ||
		in.expired.Value() != expired+1 {
		tb.Fatalf("a submission took another path: %d items (want %d), %d errors, %d queries live, "+
			"%d cache misses, %d admissions, %d expiries (want one each)",
			fx.cli.items, items+1, fx.cli.errs, len(fx.f.queries),
			in.cacheMisses.Value()-misses, in.qosAdmitted.Value()-admitted, in.expired.Value()-expired)
	}
}

// submitAllocs is what one query's lifecycle allocates: only the records
// the query, its provider and its request keep.
//
//   - the query record (which embeds the caller's Subscription), its id
//     string and the query copy: 3;
//   - the DURATION expiry timer and its callback: 2;
//   - the managed entry, the provider id string, and the entry's sink
//     and done callbacks: 4;
//   - the provider and its on-demand round's timer and callback: 3;
//   - the UMTS request: its wire query and answer callback, the
//     envelope that goes out and comes back, and the timeout's timer and
//     callback (the pending entry is held by value in the client's map):
//     5.
const submitAllocs = 3 + 2 + 4 + 3 + 5

// A warmed factory with the answer cache and QoS on runs one extInfra
// query through submission, cache miss, admission, provider start, one
// UMTS request and expiry, allocating only the kept records. One and a
// hundred submissions per run allocate the same count per submission; the
// phone's GSM idle signalling and its power-window log allocate on their
// own cadence, below one allocation per submission, which the integer
// count drops.
func TestSubmitAllocs(t *testing.T) {
	fx := newSubmitFixture(t)
	one := testing.AllocsPerRun(100, func() { fx.submit(t) })
	hundred := testing.AllocsPerRun(3, func() {
		for i := 0; i < 100; i++ {
			fx.submit(t)
		}
	})
	if one > submitAllocs {
		t.Errorf("one submission allocates %v times, want at most %d", one, submitAllocs)
	}
	if perSub := math.Floor(hundred / 100); perSub != one {
		t.Errorf("100 submissions allocate %v per submission, one allocates %v", perSub, one)
	}
}

// The query record, with the caller's handle embedded, fits the 128-byte
// size class.
func TestQueryRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(activeQuery{}); got > 128 {
		t.Fatalf("activeQuery is %d bytes, want at most 128", got)
	}
}

// Stamping a lifecycle event allocates nothing: the owner travels beside
// the query id instead of being joined into a label.
func TestEventAllocs(t *testing.T) {
	in := newInstruments(metrics.NewRegistry(), "boat-1")
	at := vclock.Epoch
	if got := testing.AllocsPerRun(2*metrics.DefaultRingCapacity, func() {
		in.event(at, "q-12", metrics.EventDelivered, "extInfra", "temperature", metrics.DetailArgs{})
	}); got != 0 {
		t.Fatalf("instruments.event allocates %v times, want 0", got)
	}
}

// The ring record of a deferred or a degraded admission allocates
// nothing: the wait and the reason travel beside the detail, and the ring
// joins them on read into the text that was once built at record time.
func TestQoSRingDetailAllocs(t *testing.T) {
	reg := metrics.NewRegistry()
	in := newInstruments(reg, "boat-1")
	for _, d := range []qos.Decision{
		{Verdict: qos.VerdictDefer, Wait: 1500 * time.Millisecond},
		{Verdict: qos.VerdictDefer},
		{Verdict: qos.VerdictDegrade, Reason: "queue full"},
	} {
		record := func() {
			detail, args := qosDetail(d)
			in.event(vclock.Epoch, "q-7", metrics.EventAssigned, "pending", detail, args)
		}
		if got := testing.AllocsPerRun(100, record); got != 0 {
			t.Errorf("ring record of %v admission allocates %v times, want 0", d.Verdict, got)
		}
		want := "degraded: " + d.Reason
		if d.Verdict == qos.VerdictDefer {
			want = "deferred " + d.Wait.String()
		}
		evs := reg.Events().Events()
		if got := evs[len(evs)-1]; got.Detail != want || got.Query != "boat-1/q-7" {
			t.Errorf("%v admission reads %q on %q, want %q on boat-1/q-7", d.Verdict, got.Detail, got.Query, want)
		}
	}
}

// BenchmarkProcessCxtQuery runs one query's lifecycle per iteration.
func BenchmarkProcessCxtQuery(b *testing.B) {
	fx := newSubmitFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.submit(b)
	}
}
