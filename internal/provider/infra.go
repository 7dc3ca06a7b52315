package provider

import (
	"fmt"
	"time"

	"contory/internal/cxt"
	"contory/internal/fuego"
	"contory/internal/query"
	"contory/internal/refs"
	"contory/internal/tracing"
	"contory/internal/vclock"
)

// InfraOpGetItem is the infrastructure operation an InfraCxtProvider
// invokes to retrieve context items. The infrastructure's request handler
// receives an InfraQuery and returns []cxt.Item.
const InfraOpGetItem = "getCxtItem"

// InfraQuery is the wire form of a context query sent to the remote
// infrastructure (encapsulated in a 1696-byte event notification).
type InfraQuery struct {
	Select    cxt.Type
	Freshness time.Duration
	// Region optionally scopes the request geographically (WeatherWatcher
	// asks for observations near a target harbour).
	Region *query.Region
	// Entity optionally scopes the request to one entity's context.
	Entity string
	// MaxItems caps the reply size (0 = 1).
	MaxItems int
}

// InfraCxtProvider retrieves context data from remote context
// infrastructures over the 2G/3GReference's event-based interface.
type InfraCxtProvider struct {
	base
	umts   *refs.UMTSReference
	window query.EventWindow
}

// InfraConfig configures an InfraCxtProvider.
type InfraConfig struct {
	Clock vclock.Clock
	Query *query.Query
	Sink  Sink
	// OnDone fires when an on-demand query's one request is answered or
	// fails.
	OnDone DoneFunc
	UMTS   *refs.UMTSReference
	// Span is the provider's trace span; UMTS request rounds open child
	// spans under it (nil = untraced).
	Span *tracing.Span
}

// NewInfra returns an InfraCxtProvider.
func NewInfra(cfg InfraConfig) (*InfraCxtProvider, error) {
	if cfg.Query == nil {
		return nil, fmt.Errorf("provider: infra: nil query")
	}
	if cfg.UMTS == nil {
		return nil, fmt.Errorf("%w: infra provider needs a UMTSReference", ErrNoSource)
	}
	return &InfraCxtProvider{
		base:   newBase(cfg.Clock, cfg.Query, cfg.Sink, cfg.OnDone, cfg.Span),
		umts:   cfg.UMTS,
		window: *query.NewEventWindow(defaultEventWindow),
	}, nil
}

// Start implements Provider. The GSM radio must be on to use the
// infrastructure; the provider switches it on.
func (p *InfraCxtProvider) Start() error {
	if p.isStopped() {
		return ErrStopped
	}
	p.umts.SetGSMRadio(true)
	q := p.liveQuery()
	switch q.Mode() {
	case query.ModeOnDemand:
		p.arm(p.clock.After(0, func() { p.request(true, true) }))
	case query.ModePeriodic:
		p.armEvery(func() { p.request(true, false) })
	case query.ModeEvent:
		// Subscribe to the context type's channel; evaluate the EVENT
		// predicate on arriving updates.
		sub := p.span.Child("umts.subscribe")
		sub.SetAttr("channel", string(q.Select))
		unsubscribe, err := p.umts.Subscribe(string(q.Select), p.onNotification)
		if err != nil {
			sub.SetAttr("error", err.Error())
			sub.End()
			return err
		}
		sub.End()
		// Stopping drops the subscription. Other queries' registrations
		// on the same channel keep the phone subscribed. A failed send
		// leaves only the server's entry behind: the handler is gone, so
		// no notification reaches this provider.
		p.onRelease(func() { _ = unsubscribe() })
	}
	return nil
}

// infraQueryFrom converts the provider's query into its wire form.
func infraQueryFrom(q *query.Query) InfraQuery {
	iq := InfraQuery{Select: q.Select, Freshness: q.Freshness, MaxItems: 1}
	if q.From.Kind == query.SourceRegion {
		r := q.From.Region
		iq.Region = &r
	}
	if q.From.Kind == query.SourceEntity {
		iq.Entity = q.From.Entity
	}
	if q.From.NumNodes > 1 {
		iq.MaxItems = q.From.NumNodes
	}
	return iq
}

// request performs one on-demand retrieval round.
func (p *InfraCxtProvider) request(deliver, finishAfter bool) {
	if p.isStopped() {
		return
	}
	q := p.liveQuery()
	sp := p.span.Child("umts.request")
	sp.SetAttr("op", InfraOpGetItem)
	p.umts.RequestTraced(InfraOpGetItem, infraQueryFrom(q), 0, sp, func(v any, err error) {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
		if err != nil || p.isStopped() {
			if finishAfter {
				p.finish()
			}
			return
		}
		items, ok := v.([]cxt.Item)
		if !ok {
			if it, single := v.(cxt.Item); single {
				items = []cxt.Item{it}
			}
		}
		for _, it := range items {
			p.deliverItem(it, deliver)
		}
		if finishAfter {
			p.finish()
		}
	})
}

func (p *InfraCxtProvider) onNotification(n fuego.Notification) {
	if p.isStopped() {
		return
	}
	it, ok := n.Payload.(cxt.Item)
	if !ok {
		return
	}
	q := p.liveQuery()
	if v, numeric := it.NumericValue(); numeric {
		p.window.Observe(v)
	}
	if q.Event != nil && !query.EvalEvent(q.Event, &p.window) {
		return
	}
	p.deliverItem(it, true)
}

func (p *InfraCxtProvider) deliverItem(it cxt.Item, deliver bool) {
	if !deliver {
		return
	}
	if it.Source.Kind == 0 {
		it.Source = cxt.Source{Kind: cxt.SourceInfrastructure}
	}
	if !p.accepts(it) {
		return
	}
	p.emit(it)
}

var _ Provider = (*InfraCxtProvider)(nil)
