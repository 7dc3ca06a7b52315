package provider

import (
	"fmt"
	"sort"

	"contory/internal/cxt"
	"contory/internal/query"
	"contory/internal/refs"
	"contory/internal/simnet"
	"contory/internal/sm"
	"contory/internal/tracing"
	"contory/internal/vclock"
)

// Transport selects how an AdHocCxtProvider reaches the ad hoc network:
// the BTReference (only one-hop routing) or the WiFiReference (also
// multi-hop routing), §4.3.
type Transport int

// Transports.
const (
	TransportBT Transport = iota + 1
	TransportWiFi
)

// String implements fmt.Stringer.
func (t Transport) String() string {
	if t == TransportBT {
		return "bt"
	}
	return "wifi"
}

// AdHocCxtProvider supports distributed context provisioning in ad hoc
// networks: it gathers context items from neighbouring nodes, over BT for
// one-hop queries or over the Smart Messages WiFi platform for multi-hop
// queries (§5.2).
type AdHocCxtProvider struct {
	base
	transport Transport
	bt        *refs.BTReference
	wifi      *refs.WiFiReference

	// BT state: discovered provider devices offering the service; known
	// lists pre-known devices that skip inquiry.
	btDevices []simnet.NodeID
	known     []simnet.NodeID
	window    query.EventWindow
}

// AdHocConfig configures an AdHocCxtProvider.
type AdHocConfig struct {
	Clock vclock.Clock
	Query *query.Query
	Sink  Sink
	// OnDone fires when an on-demand query's one collection round
	// completes.
	OnDone    DoneFunc
	Transport Transport
	BT        *refs.BTReference   // required for TransportBT
	WiFi      *refs.WiFiReference // required for TransportWiFi
	// KnownDevices optionally lists pre-known BT provider devices
	// (§5.2: "in some cases a list of pre-known devices is used"),
	// skipping the ≈13-s inquiry and going straight to SDP.
	KnownDevices []simnet.NodeID
	// Span is the provider's trace span; BT inquiry/SDP/get rounds and
	// WiFi finder rounds open child spans under it (nil = untraced).
	Span *tracing.Span
}

// NewAdHoc returns an AdHocCxtProvider.
func NewAdHoc(cfg AdHocConfig) (*AdHocCxtProvider, error) {
	if cfg.Query == nil {
		return nil, fmt.Errorf("provider: adhoc: nil query")
	}
	switch cfg.Transport {
	case TransportBT:
		if cfg.BT == nil {
			return nil, fmt.Errorf("%w: adhoc BT transport needs a BTReference", ErrNoSource)
		}
		if hops := cfg.Query.From.NumHops; hops > 1 {
			return nil, fmt.Errorf("provider: adhoc: BT supports only one-hop routing, query wants %d", hops)
		}
	case TransportWiFi:
		if cfg.WiFi == nil {
			return nil, fmt.Errorf("%w: adhoc WiFi transport needs a WiFiReference", ErrNoSource)
		}
	default:
		return nil, fmt.Errorf("provider: adhoc: unknown transport %d", int(cfg.Transport))
	}
	known := make([]simnet.NodeID, len(cfg.KnownDevices))
	copy(known, cfg.KnownDevices)
	return &AdHocCxtProvider{
		base:      newBase(cfg.Clock, cfg.Query, cfg.Sink, cfg.OnDone, cfg.Span),
		transport: cfg.Transport,
		bt:        cfg.BT,
		wifi:      cfg.WiFi,
		known:     known,
		window:    *query.NewEventWindow(defaultEventWindow),
	}, nil
}

// Transport returns the provider's transport.
func (p *AdHocCxtProvider) Transport() Transport { return p.transport }

// Start implements Provider.
func (p *AdHocCxtProvider) Start() error {
	if p.isStopped() {
		return ErrStopped
	}
	if p.transport == TransportBT {
		if len(p.known) > 0 {
			// Pre-known device list: skip the ≈13-s inquiry.
			p.onBTDevices(p.known)
			return nil
		}
		// One-time device + service discovery (≈ 13 s + 1.12 s), then the
		// query's collection schedule (Table 2's on-demand vs periodic
		// split).
		inq := p.span.Child("bt.inquiry")
		p.bt.Discover(func(devs []simnet.NodeID) {
			inq.SetAttrInt("devices", int64(len(devs)))
			inq.End()
			p.onBTDevices(devs)
		})
		return nil
	}
	p.scheduleWiFi()
	return nil
}

// onBTDevices filters inquiry results by SDP service discovery.
func (p *AdHocCxtProvider) onBTDevices(devs []simnet.NodeID) {
	if p.isStopped() {
		return
	}
	if len(devs) == 0 {
		p.scheduleBT() // no devices found: on-demand will finish empty
		return
	}
	q := p.liveQuery()
	// Every exchange is counted before the first is sent, so one that
	// fails synchronously cannot schedule the collection early, or twice.
	pendingSDP := len(devs)
	for _, dev := range devs {
		sdp := p.span.Child("bt.sdp")
		sdp.SetAttr("device", string(dev))
		p.bt.DiscoverServices(dev, func(names []string, err error) {
			if err != nil {
				sdp.SetAttr("error", err.Error())
			}
			sdp.End()
			if err == nil {
				for _, n := range names {
					if n == string(q.Select) {
						p.mu.Lock()
						p.btDevices = append(p.btDevices, dev)
						p.mu.Unlock()
						break
					}
				}
			}
			pendingSDP--
			if pendingSDP == 0 {
				p.scheduleBT()
			}
		})
	}
}

func (p *AdHocCxtProvider) scheduleBT() {
	if p.isStopped() {
		return
	}
	q := p.liveQuery()
	switch q.Mode() {
	case query.ModeOnDemand:
		p.collectBT(true)
	case query.ModePeriodic:
		p.armEvery(func() { p.collectBT(true) })
	case query.ModeEvent:
		p.arm(p.clock.Every(defaultSensorPoll, func() { p.collectBT(false) }))
	}
}

// collectBT fetches the service value from each discovered device.
func (p *AdHocCxtProvider) collectBT(deliver bool) {
	if p.isStopped() {
		return
	}
	q := p.liveQuery()
	p.mu.Lock()
	devs := make([]simnet.NodeID, len(p.btDevices))
	copy(devs, p.btDevices)
	p.mu.Unlock()
	sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
	limit := len(devs)
	if q.From.NumNodes != query.AllNodes && q.From.NumNodes < limit {
		limit = q.From.NumNodes
	}
	for _, dev := range devs[:limit] {
		get := p.span.Child("bt.get")
		get.SetAttr("device", string(dev))
		p.bt.Get(dev, string(q.Select), func(it cxt.Item, err error) {
			if err != nil {
				get.SetAttr("error", err.Error())
			}
			get.End()
			if err != nil || p.isStopped() {
				return
			}
			p.deliverItem(it, deliver)
		})
	}
	if q.Mode() == query.ModeOnDemand {
		// One round only; completion after the round's replies drain.
		p.arm(p.clock.After(btRoundGrace, p.finish))
	}
}

// btRoundGrace is how long an on-demand BT round waits for replies before
// completing.
const btRoundGrace = 2 * defaultSensorPoll

// entityMaxHops is the routing depth allowed for destination-addressed
// (entity/region) ad hoc queries, which carry no numHops of their own.
const entityMaxHops = 8

func (p *AdHocCxtProvider) scheduleWiFi() {
	q := p.liveQuery()
	switch q.Mode() {
	case query.ModeOnDemand:
		p.arm(p.clock.After(0, func() { p.collectWiFi(true, true) }))
	case query.ModePeriodic:
		p.armEvery(func() { p.collectWiFi(true, false) })
	case query.ModeEvent:
		// Event queries ship the EVENT predicate with the SM-FINDER so it
		// is evaluated at the provider's node (§5.2); each round that
		// fires returns the triggering values.
		p.arm(p.clock.Every(defaultSensorPoll, func() { p.collectWiFi(false, false) }))
	}
}

// collectWiFi runs one SM-FINDER round.
func (p *AdHocCxtProvider) collectWiFi(deliver, finishAfter bool) {
	if p.isStopped() {
		return
	}
	q := p.liveQuery()
	hops := q.From.NumHops
	if hops < 1 {
		hops = 1
	}
	spec := sm.FinderSpec{
		TagName:  string(q.Select),
		MaxNodes: q.From.NumNodes,
		MaxHops:  hops,
		Filter:   p.remoteFilter(q),
		Span:     p.span,
	}
	switch q.From.Kind {
	case query.SourceEntity:
		// Destination-addressed query: route straight to the entity.
		spec.Targets = []simnet.NodeID{simnet.NodeID(q.From.Entity)}
		spec.MaxHops = entityMaxHops
	case query.SourceRegion:
		// Geographically routed query: only providers inside the region
		// answer. Region coordinates are in the simulated space (metres).
		spec.Region = &sm.RegionSpec{
			X: q.From.Region.X, Y: q.From.Region.Y, Radius: q.From.Region.Radius,
		}
		spec.MaxHops = entityMaxHops
	}
	p.wifi.Query(spec, func(rs []sm.Result, err error) {
		if err != nil || p.isStopped() {
			if finishAfter {
				p.finish()
			}
			return
		}
		for _, r := range rs {
			it := resultItem(q, r)
			p.deliverItem(it, deliver)
		}
		if finishAfter {
			p.finish()
		}
	})
}

// remoteFilter evaluates WHERE/FRESHNESS/EVENT requirements at the
// provider's node (§5.2): tags carrying cxt.Item values are checked
// against the query; raw values pass (they are re-checked on delivery).
func (p *AdHocCxtProvider) remoteFilter(q *query.Query) func(any) bool {
	return func(v any) bool {
		it, ok := v.(cxt.Item)
		if !ok {
			return true
		}
		if !q.Matches(it, p.clock.Now()) {
			return false
		}
		if q.Event != nil {
			w := query.NewEventWindow(1)
			if f, numeric := it.NumericValue(); numeric {
				w.Observe(f)
			}
			return query.EvalEvent(q.Event, w)
		}
		return true
	}
}

// resultItem converts an SM-FINDER result into a context item.
func resultItem(q *query.Query, r sm.Result) cxt.Item {
	if it, ok := r.Value.(cxt.Item); ok {
		it.Source = cxt.Source{Kind: cxt.SourceAdHocNode, Address: string(r.Node)}
		return it
	}
	return cxt.Item{
		Type:      q.Select,
		Value:     r.Value,
		Timestamp: r.At,
		Source:    cxt.Source{Kind: cxt.SourceAdHocNode, Address: string(r.Node)},
	}
}

// deliverItem applies local filters (and the event window for event-based
// queries) before emitting.
func (p *AdHocCxtProvider) deliverItem(it cxt.Item, deliver bool) {
	q := p.liveQuery()
	if v, numeric := it.NumericValue(); numeric {
		p.window.Observe(v)
	}
	if !deliver && !query.EvalEvent(q.Event, &p.window) {
		return
	}
	if it.Source.Kind == 0 {
		it.Source = cxt.Source{Kind: cxt.SourceAdHocNode}
	}
	if !p.accepts(it) {
		return
	}
	p.emit(it)
}

var _ Provider = (*AdHocCxtProvider)(nil)
