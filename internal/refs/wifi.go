package refs

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"contory/internal/metrics"
	"contory/internal/monitor"
	"contory/internal/radio"
	"contory/internal/simnet"
	"contory/internal/sm"
	"contory/internal/vclock"
)

// WiFiReference manages communication in WiFi networks and provides
// abstractions for content-based routing, geographical routing and
// multi-hop communication in ad hoc networks, built on the Smart Messages
// platform (§5.1). The first query towards a given context tag pays an
// additional route-building cost of approximately twice the query latency
// (§6.1); subsequent queries reuse the cached route.
type WiFiReference struct {
	clock    vclock.Clock
	platform *sm.Platform
	rt       *sm.Runtime
	node     *simnet.Node
	wifi     *radio.WiFi
	mon      *monitor.Monitor

	mu      sync.Mutex
	routes  map[routeKey]bool // built routes
	retries int               // extra attempts per query on timeout
	timeout time.Duration     // per-attempt finder timeout (0 = spec/SM default)
	backoff time.Duration     // linear backoff between attempts (attempt k waits k×backoff)

	mFinders     *metrics.Counter
	mRouteBuilds *metrics.Counter
	mTagWrites   *metrics.Counter
	mTimeouts    *metrics.Counter
}

type routeKey struct {
	tag  string
	hops int
}

// NewWiFiReference installs the SM runtime on the node and joins the
// Contory ad hoc network.
func NewWiFiReference(p *sm.Platform, id simnet.NodeID, wifi *radio.WiFi, mon *monitor.Monitor) (*WiFiReference, error) {
	rt, err := p.Install(id, sm.Admission{})
	if err != nil {
		return nil, fmt.Errorf("refs: wifi: %w", err)
	}
	node := rt.Node()
	return &WiFiReference{
		clock:    p.ClockFor(id),
		platform: p,
		rt:       rt,
		node:     node,
		wifi:     wifi,
		mon:      mon,
		routes:   make(map[routeKey]bool),
	}, nil
}

// SetMetrics attaches a registry counting SM-FINDER launches, route builds,
// tag writes and finder timeouts.
func (r *WiFiReference) SetMetrics(reg *metrics.Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mFinders = reg.Counter("refs.wifi.finder_queries")
	r.mRouteBuilds = reg.Counter("refs.wifi.route_builds")
	r.mTagWrites = reg.Counter("refs.wifi.tag_publishes")
	r.mTimeouts = reg.Counter("refs.wifi.finder_timeouts")
}

// PublishTag publishes a context item as an SM tag: a local hashtable write
// (≈ 0.13 ms, Table 1). It returns the sampled latency.
func (r *WiFiReference) PublishTag(name string, value any, lifetime time.Duration) time.Duration {
	r.mTagWrites.Inc()
	d, _ := r.wifi.Publish(radio.ItemBytesMax)
	r.rt.Tags().Update(sm.Tag{Name: name, Value: value, Owner: string(r.node.ID()), Lifetime: lifetime})
	return d
}

// RemoveTag deletes a published tag.
func (r *WiFiReference) RemoveTag(name string) { r.rt.Tags().Delete(name) }

// Tags returns the node's tag space.
func (r *WiFiReference) Tags() *sm.TagSpace { return r.rt.Tags() }

// SetRetryPolicy configures the reference's recovery posture in one call:
// extra finder attempts on timeout (mobile ad hoc networks lose messages;
// the paper lists "more reliable context provisioning in mobile ad hoc
// networks" as future work), a per-attempt timeout applied to specs that
// don't set their own (0 keeps the spec's or the SM default), and a linear
// backoff between attempts (attempt k waits k×backoff before relaunching).
func (r *WiFiReference) SetRetryPolicy(retries int, timeout, backoff time.Duration) {
	if retries < 0 {
		retries = 0
	}
	if timeout < 0 {
		timeout = 0
	}
	if backoff < 0 {
		backoff = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.retries = retries
	r.timeout = timeout
	r.backoff = backoff
}

// RetryPolicy returns the currently effective retries/timeout/backoff.
func (r *WiFiReference) RetryPolicy() (retries int, timeout, backoff time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retries, r.timeout, r.backoff
}

// Query launches an SM-FINDER for the given spec. The first query per
// (tag, hops) pair prepends the route-building delay; timed-out attempts
// are retried per SetRetryPolicy; failures and timeouts are reported to the
// monitor as WiFi trouble.
func (r *WiFiReference) Query(spec sm.FinderSpec, done func([]sm.Result, error)) {
	key := routeKey{tag: spec.TagName, hops: spec.MaxHops}
	r.mu.Lock()
	routeBuilt := r.routes[key]
	attemptsLeft := r.retries + 1
	backoff := r.backoff
	if r.timeout > 0 && spec.Timeout == 0 {
		spec.Timeout = r.timeout
	}
	r.mu.Unlock()

	attempt := 0
	var launch func()
	launch = func() {
		r.mFinders.Inc()
		// Each attempt gets its own span; the SM runtime parents migration
		// hops and remote executions under it via the spec.
		att := spec.Span.Child("wifi.finder")
		att.SetAttrInt("attempt", int64(attempt+1))
		aspec := spec
		aspec.Span = att
		err := r.platform.LaunchFinder(r.node.ID(), aspec, func(rs []sm.Result, err error) {
			if err != nil {
				att.SetAttr("error", err.Error())
			} else {
				att.SetAttrInt("results", int64(len(rs)))
			}
			att.End()
			if err != nil {
				if errors.Is(err, sm.ErrFinderTimeout) {
					r.mTimeouts.Inc()
				}
				attemptsLeft--
				if attemptsLeft > 0 && errors.Is(err, sm.ErrFinderTimeout) {
					// Mobility may have changed the topology; rebuild the
					// route on the retry, after the policy's backoff.
					r.mu.Lock()
					delete(r.routes, key)
					r.mu.Unlock()
					attempt++
					if backoff > 0 {
						r.clock.After(time.Duration(attempt)*backoff, launch)
					} else {
						launch()
					}
					return
				}
				if r.mon != nil {
					r.mon.ReportFailure("wifi", err.Error())
				}
			} else {
				r.mu.Lock()
				r.routes[key] = true
				r.mu.Unlock()
				if r.mon != nil {
					r.mon.ReportRecovery("wifi")
				}
			}
			done(rs, err)
		})
		if err != nil {
			att.SetAttr("error", err.Error())
			att.End()
			done(nil, err)
		}
	}
	if routeBuilt {
		launch()
		return
	}
	hops := spec.MaxHops
	if hops < 1 {
		hops = 1
	}
	r.mRouteBuilds.Inc()
	rb := spec.Span.Child("wifi.route-build")
	rb.SetAttrInt("hops", int64(hops))
	d, ws := r.wifi.RouteBuild(radio.QueryBytes, hops)
	applyWindows(r.node, ws, r.clock.Now())
	r.clock.After(d, func() {
		rb.End()
		launch()
	})
}

// Probe checks ad hoc reachability with the cheapest possible finder: a
// one-hop lookup of the participation tag every SM node exposes. A
// successful probe flows through Query's success path, which reports WiFi
// recovery to the monitor — this is the failback signal core.Factory's
// recovery probes rely on. done (optional) receives whether any peer
// answered.
func (r *WiFiReference) Probe(done func(ok bool)) {
	spec := sm.FinderSpec{TagName: sm.ParticipationTag, MaxNodes: 1, MaxHops: 1}
	r.Query(spec, func(rs []sm.Result, err error) {
		if done != nil {
			done(err == nil && len(rs) > 0)
		}
	})
}

// InvalidateRoutes drops the route cache (e.g. after heavy mobility).
func (r *WiFiReference) InvalidateRoutes() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.routes = make(map[routeKey]bool)
}

// Leave withdraws from and Join rejoins the Contory ad hoc network.
func (r *WiFiReference) Leave() { r.rt.Leave() }

// Join re-exposes the participation tag.
func (r *WiFiReference) Join() { r.rt.Join() }

// Participating reports whether the node is part of the Contory ad hoc
// network.
func (r *WiFiReference) Participating() bool { return r.rt.Participating() }

// Node returns the underlying simnet node.
func (r *WiFiReference) Node() *simnet.Node { return r.node }
