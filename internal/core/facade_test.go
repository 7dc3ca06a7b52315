package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"contory/internal/cxt"
	"contory/internal/metrics"
	"contory/internal/provider"
	"contory/internal/query"
	"contory/internal/tracing"
	"contory/internal/vclock"
)

// fakeProvider is a controllable Provider for facade unit tests.
type fakeProvider struct {
	mu      sync.Mutex
	q       *query.Query
	started bool
	stopped bool
	updates int
	sink    provider.Sink
	onDone  provider.DoneFunc
}

func (p *fakeProvider) Query() *query.Query {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.q
}
func (p *fakeProvider) UpdateQuery(q *query.Query) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.q = q
	p.updates++
}
func (p *fakeProvider) Start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.started = true
	return nil
}
func (p *fakeProvider) Stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stopped = true
}
func (p *fakeProvider) emit(it cxt.Item) { p.sink(it) }

// facadeRig builds a Facade with fake providers and recording callbacks.
type facadeRig struct {
	clk       *vclock.Simulator
	fac       *Facade
	providers []*fakeProvider
	delivered map[string][]cxt.Item
	order     []string // query ids in delivery order
	expired   []string
	makeErr   error
}

func newFacadeRig(t *testing.T) *facadeRig {
	t.Helper()
	r := &facadeRig{
		clk:       vclock.NewSimulator(),
		delivered: make(map[string][]cxt.Item),
	}
	r.fac = newFacade(MechanismAdHoc, r.clk,
		func(q *query.Query, sink provider.Sink, onDone provider.DoneFunc, span *tracing.Span) (provider.Provider, error) {
			if r.makeErr != nil {
				return nil, r.makeErr
			}
			p := &fakeProvider{q: q.Clone(), sink: sink, onDone: onDone}
			r.providers = append(r.providers, p)
			return p, nil
		},
		func(qid string, it cxt.Item) {
			r.delivered[qid] = append(r.delivered[qid], it)
			r.order = append(r.order, qid)
		},
		func(id string) { r.expired = append(r.expired, id) },
		metrics.NewRegistry(), "rig", nil,
	)
	return r
}

func tempQuery(every int) *query.Query {
	return query.MustParse(fmt.Sprintf(
		"SELECT temperature FROM adHocNetwork(all,1) DURATION 1 hour EVERY %d sec", every))
}

func TestFacadeSubmitCreatesAndStarts(t *testing.T) {
	r := newFacadeRig(t)
	if err := r.fac.Submit("q-1", tempQuery(10), true); err != nil {
		t.Fatal(err)
	}
	if len(r.providers) != 1 || !r.providers[0].started {
		t.Fatalf("providers = %+v", r.providers)
	}
	created, merged := r.fac.Stats()
	if created != 1 || merged != 0 {
		t.Fatalf("stats = %d/%d", created, merged)
	}
}

func TestFacadeMergesCompatibleQueries(t *testing.T) {
	r := newFacadeRig(t)
	if err := r.fac.Submit("q-1", tempQuery(30), true); err != nil {
		t.Fatal(err)
	}
	if err := r.fac.Submit("q-2", tempQuery(10), true); err != nil {
		t.Fatal(err)
	}
	if len(r.providers) != 1 {
		t.Fatalf("providers = %d, want 1", len(r.providers))
	}
	// The provider's query took the faster rate.
	if got := r.providers[0].Query().Every; got != 10*time.Second {
		t.Fatalf("merged Every = %v", got)
	}
	if r.providers[0].updates != 1 {
		t.Fatalf("updates = %d", r.providers[0].updates)
	}
}

func TestFacadeMergeDisabled(t *testing.T) {
	r := newFacadeRig(t)
	if err := r.fac.Submit("q-1", tempQuery(30), false); err != nil {
		t.Fatal(err)
	}
	if err := r.fac.Submit("q-2", tempQuery(10), false); err != nil {
		t.Fatal(err)
	}
	if len(r.providers) != 2 {
		t.Fatalf("providers = %d, want 2", len(r.providers))
	}
}

func TestFacadePostExtraction(t *testing.T) {
	r := newFacadeRig(t)
	strict := query.MustParse("SELECT temperature FROM adHocNetwork(all,1) WHERE accuracy<=0.2 DURATION 1 hour EVERY 10 sec")
	loose := query.MustParse("SELECT temperature FROM adHocNetwork(all,1) WHERE accuracy<=0.9 DURATION 1 hour EVERY 10 sec")
	if err := r.fac.Submit("q-strict", strict, true); err != nil {
		t.Fatal(err)
	}
	if err := r.fac.Submit("q-loose", loose, true); err != nil {
		t.Fatal(err)
	}
	if len(r.providers) != 1 {
		t.Fatalf("providers = %d", len(r.providers))
	}
	// Emit an item only the loose query accepts.
	r.providers[0].emit(cxt.Item{
		Type: cxt.TypeTemperature, Value: 20.0,
		Timestamp: r.clk.Now(), Meta: cxt.Metadata{Accuracy: 0.5},
	})
	if len(r.delivered["q-strict"]) != 0 {
		t.Fatal("strict query got an item its WHERE rejects")
	}
	if len(r.delivered["q-loose"]) != 1 {
		t.Fatal("loose query missed its item")
	}
	// And one both accept.
	r.providers[0].emit(cxt.Item{
		Type: cxt.TypeTemperature, Value: 21.0,
		Timestamp: r.clk.Now(), Meta: cxt.Metadata{Accuracy: 0.1},
	})
	if len(r.delivered["q-strict"]) != 1 || len(r.delivered["q-loose"]) != 2 {
		t.Fatalf("deliveries = %d/%d", len(r.delivered["q-strict"]), len(r.delivered["q-loose"]))
	}
}

func TestFacadeCancelLastStopsProvider(t *testing.T) {
	r := newFacadeRig(t)
	if err := r.fac.Submit("q-1", tempQuery(10), true); err != nil {
		t.Fatal(err)
	}
	if !r.fac.Cancel("q-1") {
		t.Fatal("Cancel returned false")
	}
	if !r.providers[0].stopped {
		t.Fatal("provider not stopped")
	}
	if r.fac.ActiveProviders() != 0 {
		t.Fatal("provider still managed")
	}
	if r.fac.Cancel("q-1") {
		t.Fatal("double Cancel returned true")
	}
}

func TestFacadeCancelRenarrows(t *testing.T) {
	r := newFacadeRig(t)
	if err := r.fac.Submit("q-fast", tempQuery(10), true); err != nil {
		t.Fatal(err)
	}
	if err := r.fac.Submit("q-slow", tempQuery(60), true); err != nil {
		t.Fatal(err)
	}
	if got := r.providers[0].Query().Every; got != 10*time.Second {
		t.Fatalf("merged Every = %v", got)
	}
	// Cancelling the fast query slows the provider back down.
	if !r.fac.Cancel("q-fast") {
		t.Fatal("cancel failed")
	}
	if got := r.providers[0].Query().Every; got != 60*time.Second {
		t.Fatalf("re-narrowed Every = %v, want 60s", got)
	}
	if r.providers[0].stopped {
		t.Fatal("provider stopped while still serving q-slow")
	}
}

func TestFacadeProviderDoneExpiresAll(t *testing.T) {
	r := newFacadeRig(t)
	if err := r.fac.Submit("q-1", tempQuery(10), true); err != nil {
		t.Fatal(err)
	}
	if err := r.fac.Submit("q-2", tempQuery(30), true); err != nil {
		t.Fatal(err)
	}
	r.providers[0].onDone()
	if len(r.expired) != 2 {
		t.Fatalf("expired = %v", r.expired)
	}
	if r.fac.ActiveProviders() != 0 {
		t.Fatal("provider still managed after done")
	}
	// Emissions after done are dropped.
	r.providers[0].emit(cxt.Item{Type: cxt.TypeTemperature, Timestamp: r.clk.Now()})
	if len(r.delivered["q-1"]) != 0 {
		t.Fatal("delivery after done")
	}
}

func TestFacadeDisabled(t *testing.T) {
	r := newFacadeRig(t)
	r.fac.SetDisabled(true)
	err := r.fac.Submit("q-1", tempQuery(10), true)
	if !errors.Is(err, ErrFacadeDisabled) {
		t.Fatalf("err = %v", err)
	}
	r.fac.SetDisabled(false)
	if err := r.fac.Submit("q-1", tempQuery(10), true); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeMakerError(t *testing.T) {
	r := newFacadeRig(t)
	r.makeErr = errors.New("no radio")
	if err := r.fac.Submit("q-1", tempQuery(10), true); err == nil {
		t.Fatal("Submit with failing maker succeeded")
	}
	if r.fac.ActiveProviders() != 0 {
		t.Fatal("phantom provider left behind")
	}
}

func TestFacadeQueriesAndStopAll(t *testing.T) {
	r := newFacadeRig(t)
	if err := r.fac.Submit("q-b", tempQuery(10), false); err != nil {
		t.Fatal(err)
	}
	if err := r.fac.Submit("q-a", tempQuery(20), false); err != nil {
		t.Fatal(err)
	}
	got := r.fac.Queries()
	if len(got) != 2 || got[0] != "q-a" || got[1] != "q-b" {
		t.Fatalf("Queries = %v", got)
	}
	r.fac.StopAll()
	for _, p := range r.providers {
		if !p.stopped {
			t.Fatal("provider survived StopAll")
		}
	}
	if r.fac.ActiveProviders() != 0 {
		t.Fatal("managed providers survive StopAll")
	}
}

func TestSmallAccessors(t *testing.T) {
	r := newFacadeRig(t)
	if r.fac.Mechanism() != MechanismAdHoc {
		t.Fatalf("Mechanism = %v", r.fac.Mechanism())
	}
}

// The merge scan tries running providers in provider-id order, byte-wise
// as the ids compare (adHocNetwork-10 before adHocNetwork-2), so a query
// mergeable into several joins the first of them in that order.
func TestFacadeMergeTargetOrder(t *testing.T) {
	r := newFacadeRig(t)
	for i := 1; i <= 12; i++ {
		if err := r.fac.Submit(fmt.Sprintf("q-%d", i), tempQuery(10), false); err != nil {
			t.Fatal(err)
		}
	}
	r.fac.Cancel("q-1") // stops adHocNetwork-1, the byte-wise first
	if err := r.fac.Submit("q-new", tempQuery(10), true); err != nil {
		t.Fatal(err)
	}
	if stream, subs, ok := r.fac.StreamInfo("q-new"); !ok || stream != "adHocNetwork-10" || subs != 2 {
		t.Fatalf("q-new joined %q (%d subscribers, %v), want adHocNetwork-10", stream, subs, ok)
	}
	if got := r.fac.ActiveProviders(); got != 11 {
		t.Fatalf("%d providers running, want 11", got)
	}
}
