package provider

import (
	"fmt"
	"time"

	"contory/internal/cxt"
	"contory/internal/query"
	"contory/internal/refs"
	"contory/internal/simnet"
	"contory/internal/tracing"
	"contory/internal/vclock"
)

// LocalCxtProvider manages access to local sensors, which can be integrated
// in the device (InternalReference) or accessible via BT (a BT-GPS
// receiver). It periodically pulls sensor devices and reports values that
// match the query's WHERE and FRESHNESS requirements.
type LocalCxtProvider struct {
	base
	internal *refs.InternalReference
	bt       *refs.BTReference
	gpsDev   simnet.NodeID // non-empty when the source is a BT-GPS stream

	window query.EventWindow
	// lastFix is the latest GPS fix and lastFixAt its arrival time. The
	// fix is kept by value: its item is built only when it is emitted.
	lastFix     cxt.Fix
	lastFixAt   time.Time
	lastEmitted time.Time
}

// LocalConfig configures a LocalCxtProvider.
type LocalConfig struct {
	Clock vclock.Clock
	Query *query.Query
	Sink  Sink
	// OnDone fires when an on-demand query's one reading is delivered.
	OnDone DoneFunc
	// Internal provides integrated sensors (optional).
	Internal *refs.InternalReference
	// BT and GPSDevice select a BT-GPS stream source for location queries
	// (optional).
	BT        *refs.BTReference
	GPSDevice simnet.NodeID
	// Span is the provider's trace span; sensor reads and the GPS
	// connect/stream open child spans under it (nil = untraced).
	Span *tracing.Span
}

// NewLocal returns a LocalCxtProvider.
func NewLocal(cfg LocalConfig) (*LocalCxtProvider, error) {
	if cfg.Query == nil {
		return nil, fmt.Errorf("provider: local: nil query")
	}
	if cfg.Internal == nil && cfg.BT == nil {
		return nil, fmt.Errorf("%w: local provider needs a sensor reference", ErrNoSource)
	}
	return &LocalCxtProvider{
		base:     newBase(cfg.Clock, cfg.Query, cfg.Sink, cfg.OnDone, cfg.Span),
		internal: cfg.Internal,
		bt:       cfg.BT,
		gpsDev:   cfg.GPSDevice,
		window:   *query.NewEventWindow(defaultEventWindow),
	}, nil
}

// defaultEventWindow is the sliding-window size for EVENT aggregates.
const defaultEventWindow = 16

// Start implements Provider.
func (p *LocalCxtProvider) Start() error {
	if p.isStopped() {
		return ErrStopped
	}
	q := p.liveQuery()

	if p.usesGPS(q) {
		return p.startGPS(q)
	}
	switch q.Mode() {
	case query.ModeOnDemand:
		p.arm(p.clock.After(0, func() { p.sample(true) }))
	case query.ModePeriodic:
		p.armEvery(func() { p.sample(true) })
	case query.ModeEvent:
		// Sample at the sensor's natural rate; deliver when the event
		// condition holds.
		p.arm(p.clock.Every(defaultSensorPoll, func() { p.sample(false) }))
	}
	return nil
}

// defaultSensorPoll is the pull rate used for event-based local queries.
const defaultSensorPoll = time.Second

// usesGPS reports whether the query should be served from the BT-GPS
// stream.
func (p *LocalCxtProvider) usesGPS(q *query.Query) bool {
	if p.bt == nil || p.gpsDev == "" {
		return false
	}
	return q.Select == cxt.TypeLocation || q.Select == cxt.TypeSpeed
}

// startGPS serves location/speed queries from the NMEA stream: fixes arrive
// at 1 Hz and are re-emitted at the query's rate.
func (p *LocalCxtProvider) startGPS(q *query.Query) error {
	connect := p.span.Child("gps.connect")
	connect.SetAttr("device", string(p.gpsDev))
	off, err := p.bt.ConnectGPS(p.gpsDev, p.onFix, nil)
	if err != nil {
		connect.SetAttr("error", err.Error())
		connect.End()
		return fmt.Errorf("provider: local gps: %w", err)
	}
	connect.End()
	stream := p.span.Child("gps.stream")
	stream.SetAttr("device", string(p.gpsDev))
	// Whichever path stops the provider detaches it from the stream. An
	// on-demand query's finish runs the detach inside the stream's own fix
	// callback, which the reference calls outside its lock.
	p.onRelease(func() {
		off()
		stream.End()
	})
	switch q.Mode() {
	case query.ModeOnDemand:
		// Deliver the first fix that arrives; onFix handles it.
	case query.ModePeriodic:
		p.armEvery(p.emitLastFix)
	case query.ModeEvent:
		// onFix evaluates the event window per sample.
	}
	return nil
}

func (p *LocalCxtProvider) onFix(fix cxt.Fix) {
	if p.isStopped() {
		return
	}
	at := p.clock.Now()
	p.mu.Lock()
	q := p.q
	p.lastFix, p.lastFixAt = fix, at
	p.mu.Unlock()
	switch q.Mode() {
	case query.ModeOnDemand:
		if it := p.fixItem(q.Select, fix, at); p.accepts(it) {
			p.emit(it)
			p.finish()
		}
	case query.ModeEvent:
		p.window.Observe(fix.SpeedKn)
		if !query.EvalEvent(q.Event, &p.window) {
			return
		}
		if it := p.fixItem(q.Select, fix, at); p.accepts(it) {
			p.emit(it)
		}
	case query.ModePeriodic:
		// emitLastFix drains on the query's own timer.
	}
}

// fixItem is the item a fix that arrived at `at` is emitted as: its
// location, or its speed when the query selects speed.
func (p *LocalCxtProvider) fixItem(sel cxt.Type, fix cxt.Fix, at time.Time) cxt.Item {
	it := cxt.Item{
		Type:      cxt.TypeLocation,
		Value:     fix,
		Timestamp: at,
		Source:    cxt.Source{Kind: cxt.SourceSensor, Address: string(p.gpsDev)},
		Meta:      cxt.Metadata{Accuracy: 5, Correctness: 0.98, Completeness: 1},
	}
	if sel == cxt.TypeSpeed {
		it.Type = cxt.TypeSpeed
		it.Value = fix.SpeedKn
	}
	return it
}

// emitLastFix re-emits the most recent fix at the query's rate. A fix is
// emitted at most once: if the GPS stream stalls, no fresh samples arrive
// and the provider goes quiet (rather than replaying stale positions).
// Merging never changes SELECT, so the query in force now gives the item
// the type it would have had when the fix arrived.
func (p *LocalCxtProvider) emitLastFix() {
	p.mu.Lock()
	fix, at := p.lastFix, p.lastFixAt
	if !at.After(p.lastEmitted) {
		p.mu.Unlock()
		return // no fix since the last emission (or none yet)
	}
	p.lastEmitted = at
	sel := p.q.Select
	p.mu.Unlock()
	if it := p.fixItem(sel, fix, at); p.accepts(it) {
		p.emit(it)
	}
}

// sample pulls the matching integrated sensor once. When deliver is false
// (event mode) the observation feeds the event window and is emitted only
// if the EVENT predicate holds.
func (p *LocalCxtProvider) sample(deliver bool) {
	if p.internal == nil {
		return
	}
	q := p.liveQuery()
	s, ok := p.internal.ByType(q.Select)
	if !ok {
		return
	}
	sp := p.span.Child("sensor.read")
	sp.SetAttr("sensor", s.Name())
	it, err := p.internal.Read(s.Name())
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.End()
		return // the reference reported the failure to the monitor
	}
	sp.End()
	if v, numeric := it.NumericValue(); numeric {
		p.window.Observe(v)
	}
	if !deliver {
		if !query.EvalEvent(q.Event, &p.window) {
			return
		}
	}
	if !p.accepts(it) {
		return
	}
	p.emit(it)
	if q.Mode() == query.ModeOnDemand {
		p.finish()
	}
}

var _ Provider = (*LocalCxtProvider)(nil)
