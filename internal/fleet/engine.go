package fleet

import (
	"fmt"
	"math/rand"
	"time"

	"contory"
	"contory/internal/audit"
	"contory/internal/chaos"
	"contory/internal/cxt"
	"contory/internal/energy"
	"contory/internal/radio"
	"contory/internal/refs"
	"contory/internal/timeline"
	"contory/internal/tracing"
)

// role is a phone's assigned query archetype.
type role int

const (
	roleIdle role = iota
	roleLocalPeriodic
	roleLocalEvent
	roleAdHoc
	roleInfraOneShot
	// roleGPSPeriodic, roleDupHeavy and roleOverload are appended in
	// introduction order so zero-valued specs keep their historical role
	// assignments byte-for-byte.
	roleGPSPeriodic
	roleDupHeavy
	roleOverload
)

// dupBurst is how many identical queries a dup-heavy phone submits per
// round: one pays for the answer, the rest exercise the cache/multiplexer.
const dupBurst = 3

// overloadTypes are the distinct context types an overload phone's burst
// queries, in submission order. Distinct SELECTs never merge, so every
// burst member demands its own provisioning work.
var overloadTypes = []cxt.Type{
	cxt.TypeTemperature, cxt.TypeHumidity, cxt.TypePressure, cxt.TypeWind,
	cxt.TypeLight, cxt.TypeNoise, cxt.TypeWeather, cxt.TypeActivity,
}

// workloadClient is the client of every workload query: it ignores items
// and errors and grants every decision. It is boxed into the Client
// interface once, not on every submission.
var workloadClient contory.Client = contory.ClientFuncs{}

func (r role) String() string {
	switch r {
	case roleLocalPeriodic:
		return "local-periodic"
	case roleLocalEvent:
		return "local-event"
	case roleAdHoc:
		return "adhoc-periodic"
	case roleInfraOneShot:
		return "infra-one-shot"
	case roleGPSPeriodic:
		return "gps-periodic"
	case roleDupHeavy:
		return "dup-heavy"
	case roleOverload:
		return "overload"
	default:
		return "idle"
	}
}

// Engine owns one expanded fleet scenario: a sharded World populated with
// Spec.Phones devices, their workload schedules and the churn script. Build
// with New, execute with Run.
type Engine struct {
	spec     Spec
	w        *contory.World
	phones   []*contory.Phone
	classes  []string
	roles    []role
	injector *chaos.Injector
	auditor  *audit.Auditor
	// draining gates submit during the audit quiesce window. Written only
	// while the clock is idle (between Run phases), read from lane
	// callbacks started afterwards.
	draining bool
	ran      bool
}

// New expands a Spec into a ready-to-run fleet. All randomness — positions,
// velocities, device classes, workload roles, stagger offsets, churn — is
// drawn from Spec.Seed in a fixed order, so the same Spec always builds the
// same fleet.
func New(spec Spec) (*Engine, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	wcfg := contory.WorldConfig{Seed: spec.Seed, Lanes: spec.Lanes}
	if spec.Cache.Enabled {
		wcfg.FactoryOptions = []contory.Option{
			contory.WithAnswerCache(true),
			contory.WithCacheTTL(spec.Cache.TTL),
		}
	}
	if spec.QoS.Enabled {
		wcfg.FactoryOptions = append(wcfg.FactoryOptions, contory.WithQoS(contory.QoSConfig{
			Enabled:   true,
			Rate:      spec.QoS.Rate,
			Burst:     spec.QoS.Burst,
			QueueCap:  spec.QoS.QueueCap,
			MaxActive: spec.QoS.MaxActive,
		}))
	}
	if spec.Trace.Enabled {
		wcfg.Trace = &tracing.Config{}
	}
	if spec.Timeline.Enabled {
		tcfg := spec.Timeline.config()
		wcfg.Timeline = &tcfg
	}
	var auditor *audit.Auditor
	if spec.Audit.Enabled {
		auditor = audit.New()
		wcfg.FactoryOptions = append(wcfg.FactoryOptions, contory.WithAudit(auditor))
	}
	w, err := contory.NewWorldConfig(wcfg)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if auditor != nil {
		w.AttachAudit(auditor)
	}
	if err := w.SetRange("wifi", wifiRangeM); err != nil {
		return nil, err
	}
	if err := w.SetRange("bt", btRangeM); err != nil {
		return nil, err
	}
	e := &Engine{
		spec:    spec,
		w:       w,
		phones:  make([]*contory.Phone, 0, spec.Phones),
		classes: make([]string, 0, spec.Phones),
		roles:   make([]role, 0, spec.Phones),
		auditor: auditor,
	}
	if err := e.buildPopulation(); err != nil {
		return nil, err
	}
	if err := e.scheduleWorkload(); err != nil {
		return nil, err
	}
	e.scheduleChurn()
	e.installChaos()
	if spec.MobilitySpeedMS > 0 {
		w.StartMobility(mobilityTick)
	}
	return e, nil
}

// World exposes the engine's testbed (for tests and harnesses).
func (e *Engine) World() *contory.World { return e.w }

// Spec returns the fully-defaulted scenario the engine was built from.
func (e *Engine) Spec() Spec { return e.spec }

// phoneID formats the i-th phone's identifier; zero-padded so node IDs,
// lane hashes and sorted orders never depend on the population size.
func phoneID(i int) string { return fmt.Sprintf("p%05d", i) }

// tempAt is every phone's virtual thermometer: a pure function of the phone
// index and virtual time, so sensor readings are identical across runs and
// worker counts, and vary enough to trigger EVENT predicates.
func tempAt(idx int, now time.Time) float64 {
	base := 15.0 + float64((idx*31)%10)
	swing := float64((now.Unix() / 60) % 12)
	return base + swing
}

// classOf draws a device class from the radio mix.
func classOf(mix RadioMix, u float64) string {
	total := mix.Dual + mix.WiFiOnly + mix.UMTSOnly
	if total <= 0 {
		return ClassDual
	}
	u *= total
	if u < mix.Dual {
		return ClassDual
	}
	if u < mix.Dual+mix.WiFiOnly {
		return ClassWiFiOnly
	}
	return ClassUMTSOnly
}

// roleOf draws a workload role from the mix fractions.
func roleOf(wl Workload, u float64) role {
	for _, rc := range []struct {
		f float64
		r role
	}{
		{wl.LocalPeriodic, roleLocalPeriodic},
		{wl.LocalEvent, roleLocalEvent},
		{wl.AdHocPeriodic, roleAdHoc},
		{wl.InfraOneShot, roleInfraOneShot},
		// Appended in introduction order: earlier roles keep their
		// historical draw bands.
		{wl.GPSPeriodic, roleGPSPeriodic},
		{wl.DupHeavy, roleDupHeavy},
		{wl.Overload, roleOverload},
	} {
		if u < rc.f {
			return rc.r
		}
		u -= rc.f
	}
	return roleIdle
}

// buildPopulation creates the phones: position, class, sensors, publishers
// and mobility, drawing from one seeded stream in index order.
func (e *Engine) buildPopulation() error {
	spec := e.spec
	rng := rand.New(rand.NewSource(spec.Seed))
	area := areaMetres(spec.Phones)
	for i := 0; i < spec.Phones; i++ {
		// Fixed draw order per phone keeps the stream aligned no matter
		// which branches fire.
		x := rng.Float64() * area
		y := rng.Float64() * area
		classU := rng.Float64()
		pubU := rng.Float64()
		gpsU := rng.Float64()
		vx := (rng.Float64()*2 - 1) * spec.MobilitySpeedMS
		vy := (rng.Float64()*2 - 1) * spec.MobilitySpeedMS
		roleU := rng.Float64()

		class := classOf(spec.Radio, classU)
		cfg := contory.PhoneConfig{
			ID: phoneID(i), X: x, Y: y,
			NoInfra: class == ClassWiFiOnly,
		}
		if gpsU < spec.GPSFraction {
			cfg.GPS = &contory.Fix{Lat: 60.1 + y/111000, Lon: 24.9 + x/111000, SpeedKn: 2}
		}
		p, err := e.w.AddPhone(cfg)
		if err != nil {
			return fmt.Errorf("fleet: phone %d: %w", i, err)
		}

		idx := i
		p.Device.Internal.Register(refs.FuncSensor{
			SensorName: "thermo",
			CxtType:    cxt.TypeTemperature,
			ReadFunc: func(now time.Time) (cxt.Item, error) {
				return cxt.Item{Type: cxt.TypeTemperature, Value: tempAt(idx, now), Timestamp: now}, nil
			},
		})

		if class == ClassUMTSOnly {
			// Infrastructure-only device: off the ad hoc network entirely.
			p.Device.WiFi.Leave()
			p.Device.Node.SetRadio(radio.MediumWiFi, false)
		}

		isPublisher := pubU < spec.PublisherFraction
		if isPublisher && class != ClassUMTSOnly {
			p.PublishTag(contory.TypeTemperature, tempAt(i, e.w.Now()))
		}
		if cfg.GPS != nil {
			fix := *cfg.GPS
			if class != ClassUMTSOnly {
				// GPS carriers advertise their location in the ad hoc network,
				// so a location query losing its BT-GPS can fail over to
				// adHocNetwork provisioning (Fig. 5 at fleet scale).
				p.PublishTag(contory.TypeLocation, fix)
			}
			if class != ClassWiFiOnly {
				// ...and report it to the infrastructure, feeding the extInfra
				// fallback.
				ph := p
				p.Device.Clock.Every(spec.Workload.Period, func() {
					_ = ph.ReportLocation(fix)
				})
			}
		}
		if isPublisher && class != ClassWiFiOnly {
			// Periodic weather reports feed the infrastructure's extInfra
			// queries; scheduled on the phone's own lane.
			ph := p
			p.Device.Clock.Every(spec.Workload.Period, func() {
				_ = ph.ReportWeather(contory.TypeTemperature, tempAt(idx, e.w.Now()))
			})
		}

		if spec.MobilitySpeedMS > 0 {
			p.SetVelocity(vx, vy)
		}

		r := roleOf(spec.Workload, roleU)
		// Deterministic reassignment when a role needs a radio the class
		// lacks: wifi-only phones cannot reach the infrastructure, and
		// UMTS-only phones left the ad hoc network.
		if r == roleInfraOneShot && class == ClassWiFiOnly {
			r = roleLocalPeriodic
		}
		if r == roleDupHeavy && class == ClassWiFiOnly {
			// Dup-heavy bursts query the infrastructure.
			r = roleLocalPeriodic
		}
		if r == roleOverload && class == ClassWiFiOnly {
			// Overload bursts query the infrastructure.
			r = roleLocalPeriodic
		}
		if r == roleAdHoc && class == ClassUMTSOnly {
			r = roleInfraOneShot
		}
		if r == roleGPSPeriodic && cfg.GPS == nil {
			r = roleLocalPeriodic
		}
		e.phones = append(e.phones, p)
		e.classes = append(e.classes, class)
		e.roles = append(e.roles, r)
	}
	return nil
}

// scheduleWorkload installs each phone's query stream on its own lane
// clock, staggered inside one workload period so the fleet does not fire
// in lockstep. Each role's query is parsed once and shared by every
// submission: the factory clones what it keeps and leaves the caller's
// query untouched.
func (e *Engine) scheduleWorkload() error {
	spec := e.spec
	// Staggers come from their own stream so population layout draws and
	// workload timing draws cannot interfere.
	rng := rand.New(rand.NewSource(spec.Seed ^ 0x5deece66d))
	period := spec.Workload.Period
	durSec := int((spec.Duration + time.Minute) / time.Second)
	everySec := int(period / time.Second)
	if everySec < 1 {
		everySec = 1
	}
	var parseErr error
	parse := func(format string, args ...any) *contory.Query {
		src := fmt.Sprintf(format, args...)
		q, err := contory.ParseQuery(src)
		if err != nil && parseErr == nil {
			parseErr = fmt.Errorf("fleet: workload query %q: %w", src, err)
		}
		return q
	}
	localPeriodicQ := parse(
		"SELECT temperature FROM intSensor DURATION %d sec EVERY %d sec", durSec, everySec)
	localEventQ := parse(
		"SELECT temperature FROM intSensor DURATION %d sec EVENT temperature>25", durSec)
	adhocQ := parse(
		"SELECT temperature FROM adHocNetwork(all,1) DURATION %d sec EVERY %d sec", durSec, everySec)
	infraQ := parse("SELECT temperature FROM extInfra DURATION %d sec", everySec)
	// FRESHNESS spans two periods, so each round's duplicates — and the next
	// round's whole burst — are satisfiable by the previous stored answer.
	dupQ := parse(
		"SELECT temperature FROM extInfra FRESHNESS %d sec DURATION %d sec", 2*everySec, everySec)
	// No FROM clause: the middleware selects the mechanism and may switch
	// it when chaos faults hit the preferred one.
	gpsQ := parse("SELECT location DURATION %d sec EVERY %d sec", durSec, everySec)
	// Overload FRESHNESS sits between the tail of one round's serialized
	// UMTS retrievals (~14 s behind the feed) and the age a stored answer
	// reaches by the next round (one Period): live retrievals succeed, but
	// a strict cache lookup misses every round, so without QoS every burst
	// member queues on the radio.
	overloadFreshSec := 20
	if everySec <= overloadFreshSec {
		overloadFreshSec = everySec / 2
		if overloadFreshSec < 1 {
			overloadFreshSec = 1
		}
	}
	overloadQs := make([]*contory.Query, len(overloadTypes))
	for k, typ := range overloadTypes {
		overloadQs[k] = parse(
			"SELECT %s FROM extInfra FRESHNESS %d sec DURATION %d sec", typ, overloadFreshSec, everySec)
	}
	if parseErr != nil {
		return parseErr
	}

	for i, p := range e.phones {
		stagger := time.Duration(rng.Int63n(int64(period)))
		ph := p
		switch e.roles[i] {
		case roleLocalPeriodic:
			ph.Device.Clock.After(stagger, func() { e.submit(ph, localPeriodicQ) })
		case roleLocalEvent:
			ph.Device.Clock.After(stagger, func() { e.submit(ph, localEventQ) })
		case roleAdHoc:
			ph.Device.Clock.After(stagger, func() { e.submit(ph, adhocQ) })
		case roleInfraOneShot:
			ph.Device.Clock.After(stagger, func() {
				e.submit(ph, infraQ)
				ph.Device.Clock.Every(period, func() { e.submit(ph, infraQ) })
			})
		case roleGPSPeriodic:
			ph.Device.Clock.After(stagger, func() { e.submit(ph, gpsQ) })
		case roleDupHeavy:
			burst := func() {
				for k := 0; k < dupBurst; k++ {
					e.submit(ph, dupQ)
				}
			}
			// The first burst waits out one period so the infrastructure's
			// periodic feeds are live: duplicate bursts measure redundant
			// client traffic, not cold-start misses.
			ph.Device.Clock.After(period+stagger, func() {
				burst()
				ph.Device.Clock.Every(period, burst)
			})
		case roleOverload:
			idx := i
			// Rotating the burst's submission order one type per round keeps
			// every context type periodically fetched live (and therefore
			// degradable to a still-TTL-fresh cache answer between fetches)
			// even when admission lets only the head of each burst through.
			round := 0
			burst := func() {
				for k := range overloadQs {
					e.submit(ph, overloadQs[(round+k)%len(overloadQs)])
				}
				round++
			}
			feed := func() {
				for _, typ := range overloadTypes {
					_ = ph.ReportWeather(typ, tempAt(idx, e.w.Now()))
				}
			}
			// The feed leads each burst by four seconds — comfortably past
			// the worst-case publish latency, so live retrievals always find
			// observations inside the FRESHNESS bound; the first burst waits
			// out one period like dup-heavy phones.
			ph.Device.Clock.After(stagger, func() {
				feed()
				ph.Device.Clock.Every(period, feed)
			})
			ph.Device.Clock.After(period+stagger+4*time.Second, func() {
				burst()
				ph.Device.Clock.Every(period, burst)
			})
		}
	}
	return nil
}

// submit submits one workload query on a phone; failures surface in the
// middleware's rejected counter, not as engine errors (a fleet member being
// refused is a result, not a bug). During the audit drain window no new
// queries enter the plane, so quiescence is reachable.
func (e *Engine) submit(p *contory.Phone, q *contory.Query) {
	if e.draining {
		return
	}
	_, _ = p.Factory.ProcessCxtQuery(q, workloadClient)
}

// scheduleChurn precomputes the whole churn script from the seed and
// installs it as simulator-global events, which the parallel executor runs
// as barriers — scripted topology mutations never race device work.
func (e *Engine) scheduleChurn() {
	spec := e.spec
	ch := spec.Churn
	if ch.LeaveJoinPerMin <= 0 && ch.LinkFailuresPerMin <= 0 {
		return
	}
	rng := rand.New(rand.NewSource(spec.Seed ^ 0x2545f4914f6cdd1d))
	minutes := int(spec.Duration / time.Minute)
	for m := 1; m <= minutes; m++ {
		at := time.Duration(m) * time.Minute
		if ch.LeaveJoinPerMin > 0 {
			for i, p := range e.phones {
				if e.classes[i] == ClassUMTSOnly {
					continue
				}
				if rng.Float64() >= ch.LeaveJoinPerMin {
					continue
				}
				ph := p
				e.w.After(at, func() {
					wifi := ph.Device.WiFi
					if wifi.Participating() {
						wifi.Leave()
					} else {
						wifi.Join()
					}
				})
			}
		}
		if ch.LinkFailuresPerMin > 0 {
			count := int(ch.LinkFailuresPerMin)
			if rng.Float64() < ch.LinkFailuresPerMin-float64(count) {
				count++
			}
			for k := 0; k < count; k++ {
				i := rng.Intn(len(e.phones))
				j := rng.Intn(len(e.phones))
				if i == j {
					continue
				}
				a, b := phoneID(i), phoneID(j)
				e.w.After(at, func() { _ = e.w.FailLink(a, b, "wifi") })
				e.w.After(at+linkFailDuration, func() { _ = e.w.RestoreLink(a, b, "wifi") })
			}
		}
	}
}

// installChaos expands the chaos profile into a seeded fault plan over the
// population and installs its injector: every apply/clear lands as a
// simulator-global barrier event (via World.After), so injected faults never
// race device work and same-seed runs stay byte-identical at any worker
// count.
func (e *Engine) installChaos() {
	cs := e.spec.Chaos
	if cs.Profile == "" {
		return
	}
	prof := chaos.Profiles[cs.Profile].Scale(cs.Rate)
	targets := e.w.ChaosTargets()
	// A distinct stream from churn and workload staggers.
	faults := chaos.Plan(prof, e.spec.Seed^0x6a09e667f3bcc909, targets, e.spec.Duration)
	e.injector = chaos.NewInjector(e.w.Network(), e.w, e.w.Metrics(), targets, faults)
	e.injector.SetTracer(e.w.Tracer())
	e.injector.Install()
	if rec := e.w.Timeline(); rec != nil {
		// Hand the recorder the fault plan in absolute time for alert cause
		// attribution; like switch attribution, a fault stays blameable for
		// the grace window after it clears.
		base := e.w.Now()
		spans := make([]timeline.FaultSpan, 0, len(faults))
		for _, f := range faults {
			spans = append(spans, timeline.FaultSpan{
				ID:     f.ID,
				Kind:   string(f.Kind),
				Target: f.Target,
				From:   base.Add(f.At),
				Until:  base.Add(f.At + f.Duration + chaos.DefaultGrace),
			})
		}
		rec.SetFaults(spans)
	}
}

// ChromeTrace renders the run's retained span trees as Chrome trace-event
// JSON (chrome://tracing and Perfetto read it). With the flight recorder on,
// its derived series and alerts ride along as counter tracks and instant
// markers under a "timeline" pseudo-process, aligned with the span rows.
// Call it after Run; a spec without tracing has nothing to export.
func (e *Engine) ChromeTrace() ([]byte, error) {
	tr := e.w.Tracer()
	if tr == nil {
		return nil, fmt.Errorf("fleet: scenario %q is not traced", e.spec.Name)
	}
	var extras tracing.ChromeExtras
	if rec := e.w.Timeline(); rec != nil {
		extras = timeline.ChromeExtras(rec.Report())
	}
	return tracing.ChromeJSONWithExtras(tr.Store().Traces(), extras)
}

// Injector returns the run's fault injector (nil without a chaos profile).
func (e *Engine) Injector() *chaos.Injector { return e.injector }

// Auditor returns the run's invariant auditor (nil unless Spec.Audit is
// enabled).
func (e *Engine) Auditor() *audit.Auditor { return e.auditor }

// Run executes the scenario for Spec.Duration of virtual time and returns
// its summary. The run drains timestamps across workers goroutines (<= 0
// means GOMAXPROCS); the summary is the same at any worker count. Run can
// only be called once per engine.
func (e *Engine) Run(workers int) (Summary, error) {
	if e.ran {
		return Summary{}, fmt.Errorf("fleet: engine already ran")
	}
	e.ran = true
	start := e.w.Now()
	// One interval per phone integrates what it draws from here to the end
	// of the run, audit drain included.
	drawn := make([]energy.Interval, len(e.phones))
	for i, p := range e.phones {
		p.Device.Node.Timeline().Open(&drawn[i])
	}
	bs := e.w.RunParallel(e.spec.Duration, workers)
	e.quiesceAudit(drawn, workers)
	// Spans of queries still running when the clock stops must land in the
	// store before the summary reads it.
	e.w.Tracer().Flush()
	return e.summarize(start, drawn, bs), nil
}

// auditDrain is how much extra virtual time an audited run gets to reach
// quiescence after the workload is gated off: long enough for every
// in-flight radio request to complete or time out and every roaming SM
// tour to come home, so the end-of-run sweep checks real leaks, not work
// the clock happened to cut mid-flight.
const auditDrain = 2 * time.Minute

// quiesceAudit runs the end-of-run conservation sweep on audited runs:
// gate new submissions off, drain in-flight work, close every factory
// (cancelling surviving queries and running the facades' refcount
// zero-checks), cross-check global item accounting against the world's
// counters, and sweep every lifecycle record, timer and balance for leaks.
func (e *Engine) quiesceAudit(drawn []energy.Interval, workers int) {
	if e.auditor == nil {
		return
	}
	e.draining = true
	for _, p := range e.phones {
		p.Factory.Close()
	}
	e.w.RunParallel(auditDrain, workers)
	now := e.w.Now()
	counters := make(map[string]int64)
	for _, c := range e.w.Metrics().Instruments().Counters {
		counters[c.Name] = c.Value
	}
	tapsDelivered, tapsCache := e.auditor.Totals()
	e.auditor.Expect(now, "fleet", "", audit.LawItems,
		"items delivered: per-delivery taps vs world counter",
		tapsDelivered, counters["core.query.items_delivered"])
	e.auditor.Expect(now, "fleet", "", audit.LawItems,
		"cache hits: per-delivery taps vs world counter",
		tapsCache, counters["core.cache.hits"])
	// Energy accounting: batteries only drain, so a negative per-phone
	// energy delta means the timeline double-credited some disposition.
	for i, p := range e.phones {
		if j := drawn[i].Joules(); j < 0 {
			e.auditor.Violate(now, p.ID(), "", audit.LawItems,
				fmt.Sprintf("energy balance: phone %d drained %f J < 0", i, float64(j)), "")
		}
	}
	e.auditor.CheckQuiesce(now)
}
