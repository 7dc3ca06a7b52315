package contory

import (
	"fmt"
	"sort"
	"time"

	"contory/internal/chaos"
	"contory/internal/core"
	"contory/internal/cxt"
	"contory/internal/gps"
	"contory/internal/infra"
	"contory/internal/metrics"
	"contory/internal/radio"
	"contory/internal/simnet"
	"contory/internal/sm"
	"contory/internal/timeline"
	"contory/internal/tracing"
	"contory/internal/vclock"
)

// World is a simulated testbed: a virtual clock, a network of phones, BT
// peripherals and an optional context infrastructure. All middleware time
// flows through the world's clock, so experiments covering hours complete
// in milliseconds and are fully deterministic for a given seed.
type World struct {
	clock    *vclock.Simulator
	net      *simnet.Network
	platform *sm.Platform
	infraSrv *infra.Infrastructure
	seed     int64
	nextSeed int64
	phones   map[string]*Phone
	gpsDevs  map[string]*gps.Device
	metrics  *metrics.Registry
	tracer   *tracing.Tracer
	recorder *timeline.Recorder
	facOpts  []Option
}

// Phone is one Contory-equipped device in the world.
type Phone struct {
	// Device exposes the phone's references, monitor and repository.
	Device *Device
	// Factory is the phone's ContextFactory (the §4.4 API).
	Factory *Factory
	world   *World
}

// WorldConfig configures a World beyond the deterministic seed.
type WorldConfig struct {
	// Seed drives every random model in the world.
	Seed int64
	// Lanes > 0 shards devices across that many vclock lanes, enabling
	// RunParallel: per-device event ordering is preserved, devices on
	// different lanes execute concurrently, and same-seed runs produce
	// identical metrics at any worker count.
	Lanes int
	// Trace enables deterministic distributed tracing: every submitted
	// query starts a vclock-stamped span tree covering facade dispatch,
	// radio operations and SM migrations (nil = tracing off). The config's
	// Seed and Registry fields are filled from the world's.
	Trace *tracing.Config
	// Timeline arms the flight recorder: the world-wide registry is
	// sampled every Timeline.Interval of virtual time into delta-windows,
	// with SLO evaluation and burn-rate alerting (nil = recorder off).
	// Ticks run on the simulator's global lane, so on a sharded world they
	// are barriers between lane batches and windows stay byte-identical at
	// any worker count.
	Timeline *timeline.Config
	// FactoryOptions is appended to every phone factory's construction
	// options, after the world's metrics and tracer wiring — e.g.
	// WithAnswerCache(true) to enable the answer cache fleet-wide.
	FactoryOptions []Option
}

// NewWorld creates an empty world with an infrastructure server
// ("infra") and a Smart Messages platform, seeded for determinism.
func NewWorld(seed int64) (*World, error) {
	return NewWorldConfig(WorldConfig{Seed: seed})
}

// NewWorldConfig creates a world from a full configuration.
func NewWorldConfig(cfg WorldConfig) (*World, error) {
	seed := cfg.Seed
	clk := vclock.NewSimulator()
	nw := simnet.New(clk)
	nw.Seed(seed)
	if cfg.Lanes > 0 {
		if err := nw.EnableSharding(cfg.Lanes); err != nil {
			return nil, fmt.Errorf("contory: world sharding: %w", err)
		}
	}
	inf, err := infra.New(infra.Config{Network: nw, NodeID: "infra", UMTS: radio.NewUMTS(seed + 1)})
	if err != nil {
		return nil, fmt.Errorf("contory: world infra: %w", err)
	}
	reg := metrics.NewRegistry()
	nw.SetMetrics(reg)
	var tracer *tracing.Tracer
	if cfg.Trace != nil {
		tcfg := *cfg.Trace
		tcfg.Seed = seed
		tcfg.Registry = reg
		tracer = tracing.New(clk, tcfg)
	}
	var recorder *timeline.Recorder
	if cfg.Timeline != nil {
		if err := cfg.Timeline.Validate(); err != nil {
			return nil, fmt.Errorf("contory: world timeline: %w", err)
		}
		recorder = timeline.New(clk, reg, *cfg.Timeline)
		recorder.Install()
	}
	return &World{
		clock:    clk,
		net:      nw,
		platform: sm.NewPlatform(nw, seed+2),
		infraSrv: inf,
		seed:     seed,
		nextSeed: seed + 100,
		phones:   make(map[string]*Phone),
		gpsDevs:  make(map[string]*gps.Device),
		metrics:  reg,
		tracer:   tracer,
		recorder: recorder,
		facOpts:  cfg.FactoryOptions,
	}, nil
}

// Tracer returns the world's tracer, or nil when tracing is off.
func (w *World) Tracer() *tracing.Tracer { return w.tracer }

// Timeline returns the world's flight recorder, or nil when disabled.
func (w *World) Timeline() *timeline.Recorder { return w.recorder }

// AttachAudit wires a runtime invariant auditor into the world's shared
// subsystems (the SM platform's per-node residency balance). Pair it with
// WithAudit in WorldConfig.FactoryOptions so phone factories audit too.
func (w *World) AttachAudit(a *Auditor) { w.platform.SetAudit(a) }

// Metrics returns the world-wide metrics registry: every phone's middleware
// instruments into it, so one Snapshot covers the whole testbed.
func (w *World) Metrics() *MetricsRegistry { return w.metrics }

// Infrastructure returns the world's context infrastructure (for attaching
// services such as the RegattaClassifier).
func (w *World) Infrastructure() *infra.Infrastructure { return w.infraSrv }

// Now returns the current virtual time.
func (w *World) Now() time.Time { return w.clock.Now() }

// Run advances virtual time by d, executing all scheduled middleware work.
func (w *World) Run(d time.Duration) { w.clock.Advance(d) }

// RunParallel advances virtual time by d, draining each virtual timestamp's
// events across a bounded worker pool (workers <= 0 uses GOMAXPROCS). The
// world must have been created with Lanes > 0; per-device ordering is
// preserved and same-seed runs are deterministic at any worker count.
// Callbacks scheduled via After/Every run as barriers between lane batches,
// so scripted scenario mutations (failures, churn) never race device work.
func (w *World) RunParallel(d time.Duration, workers int) vclock.BatchStats {
	return w.clock.RunParallelUntil(w.clock.Now().Add(d), workers)
}

// EventsExecuted returns the cumulative count of simulator events run.
func (w *World) EventsExecuted() uint64 { return w.clock.Executed() }

// FailLink injects a failure on the link between two nodes on a medium; the
// link stays down until RestoreLink.
func (w *World) FailLink(a, b, medium string) error {
	m, err := radio.ParseMedium(medium)
	if err != nil {
		return fmt.Errorf("contory: %w", err)
	}
	w.net.FailLink(simnet.NodeID(a), simnet.NodeID(b), m)
	return nil
}

// RestoreLink clears a link failure.
func (w *World) RestoreLink(a, b, medium string) error {
	m, err := radio.ParseMedium(medium)
	if err != nil {
		return fmt.Errorf("contory: %w", err)
	}
	w.net.RestoreLink(simnet.NodeID(a), simnet.NodeID(b), m)
	return nil
}

// Network exposes the underlying simulated fabric (for load engines and
// experiment harnesses that need node-level control).
func (w *World) Network() *simnet.Network { return w.net }

// After schedules fn to run once d of virtual time from now (for scripted
// scenarios: failure injection, mobility scripts, staged workloads).
func (w *World) After(d time.Duration, fn func()) { w.clock.After(d, fn) }

// Every schedules fn to run every d of virtual time until the returned
// stop function is called.
func (w *World) Every(d time.Duration, fn func()) (stop func()) {
	t := w.clock.Every(d, fn)
	return func() { t.Stop() }
}

// RunUntilIdle executes pending events until the event queue drains or
// maxEvents have run; it returns the number executed. Useful after one-shot
// operations; avoid it while periodic providers are active.
func (w *World) RunUntilIdle(maxEvents int) int { return w.clock.Run(maxEvents) }

// PhoneConfig configures a phone added to the world.
type PhoneConfig struct {
	// ID names the phone (required, unique).
	ID string
	// Position is the initial location in metres.
	X, Y float64
	// GPS attaches a dedicated BT-GPS receiver streaming from this fix.
	GPS *Fix
	// NoInfra disconnects the phone from the infrastructure.
	NoInfra bool
}

// AddPhone creates a phone with BT, WiFi (ad hoc) and — unless disabled —
// UMTS connectivity to the infrastructure.
func (w *World) AddPhone(cfg PhoneConfig) (*Phone, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("contory: phone needs an id")
	}
	if _, dup := w.phones[cfg.ID]; dup {
		return nil, fmt.Errorf("contory: duplicate phone %q", cfg.ID)
	}
	w.nextSeed += 10
	dcfg := core.DeviceConfig{
		Network:    w.net,
		ID:         simnet.NodeID(cfg.ID),
		Position:   simnet.Position{X: cfg.X, Y: cfg.Y},
		SMPlatform: w.platform,
		Seed:       w.nextSeed,
	}
	if !cfg.NoInfra {
		dcfg.InfraServer = w.infraSrv.ID()
	}
	var gpsDev *gps.Device
	if cfg.GPS != nil {
		gpsID := simnet.NodeID(cfg.ID + "-gps")
		var err error
		gpsDev, err = gps.NewDevice(w.net, gpsID, *cfg.GPS)
		if err != nil {
			return nil, fmt.Errorf("contory: gps: %w", err)
		}
		dcfg.GPSDevice = gpsID
	}
	dev, err := core.NewDevice(dcfg)
	if err != nil {
		return nil, fmt.Errorf("contory: phone: %w", err)
	}
	if gpsDev != nil {
		if err := w.net.Connect(dev.ID, gpsDev.ID(), radio.MediumBT); err != nil {
			return nil, fmt.Errorf("contory: pair gps: %w", err)
		}
		w.gpsDevs[cfg.ID] = gpsDev
	}
	if !cfg.NoInfra {
		if err := w.net.Connect(dev.ID, w.infraSrv.ID(), radio.MediumUMTS); err != nil {
			return nil, fmt.Errorf("contory: umts link: %w", err)
		}
	}
	opts := make([]core.Option, 0, 2+len(w.facOpts))
	opts = append(opts, core.WithMetrics(w.metrics), core.WithTracer(w.tracer))
	opts = append(opts, w.facOpts...)
	p := &Phone{
		Device:  dev,
		Factory: core.NewFactory(dev, opts...),
		world:   w,
	}
	w.phones[cfg.ID] = p
	return p, nil
}

// Phone returns a phone by id, or nil.
func (w *World) Phone(id string) *Phone { return w.phones[id] }

// GPSOf returns a phone's GPS device (to move it or inject failures).
func (w *World) GPSOf(phoneID string) *gps.Device { return w.gpsDevs[phoneID] }

// ChaosTargets lists every phone as a fault-injection target, sorted by ID
// so target order — and therefore any seeded fault plan built over it — is
// deterministic. Phones with a paired BT-GPS receiver expose it for GPS
// outages and GPS-link flaps; every phone exposes its battery.
func (w *World) ChaosTargets() []chaos.Target {
	ids := make([]string, 0, len(w.phones))
	for id := range w.phones {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	targets := make([]chaos.Target, 0, len(ids))
	for _, id := range ids {
		p := w.phones[id]
		tgt := chaos.Target{ID: id, SetBattery: p.Device.Monitor.SetBattery}
		if g := w.gpsDevs[id]; g != nil {
			tgt.GPS = g
			tgt.GPSNode = string(g.ID())
		}
		targets = append(targets, tgt)
	}
	return targets
}

// Link connects two phones on a medium ("bt", "wifi" or "umts").
func (w *World) Link(a, b, medium string) error {
	m, err := radio.ParseMedium(medium)
	if err != nil {
		return fmt.Errorf("contory: %w", err)
	}
	if err := w.net.Connect(simnet.NodeID(a), simnet.NodeID(b), m); err != nil {
		return fmt.Errorf("contory: link: %w", err)
	}
	return nil
}

// Unlink removes a link between two phones on a medium.
func (w *World) Unlink(a, b, medium string) error {
	m, err := radio.ParseMedium(medium)
	if err != nil {
		return fmt.Errorf("contory: %w", err)
	}
	w.net.Disconnect(simnet.NodeID(a), simnet.NodeID(b), m)
	return nil
}

// SetRange enables range-based connectivity on a medium: nodes within
// metres of each other link automatically.
func (w *World) SetRange(medium string, metres float64) error {
	m, err := radio.ParseMedium(medium)
	if err != nil {
		return fmt.Errorf("contory: %w", err)
	}
	w.net.SetRange(m, metres)
	return nil
}

// StartMobility integrates phone velocities every interval.
func (w *World) StartMobility(interval time.Duration) { w.net.StartMobility(interval) }

// ID returns the phone's identifier.
func (p *Phone) ID() string { return string(p.Device.ID) }

// PublishTag publishes a context value in the ad hoc network under the
// given type; the phone registers as a context server automatically.
func (p *Phone) PublishTag(typ Type, value any) {
	p.Device.WiFi.PublishTag(string(typ), cxt.Item{
		Type:      typ,
		Value:     value,
		Timestamp: p.world.Now(),
	}, 0)
}

// SetVelocity sets the phone's velocity vector in metres/second.
func (p *Phone) SetVelocity(vx, vy float64) {
	p.Device.Node.SetVelocity(simnet.Position{X: vx, Y: vy})
}

// SetPosition teleports the phone.
func (p *Phone) SetPosition(x, y float64) {
	p.Device.Node.SetPosition(simnet.Position{X: x, Y: y})
}

// ReportLocation publishes the phone's location to the infrastructure
// (boats in the sailing scenario do this periodically).
func (p *Phone) ReportLocation(fix Fix) error {
	if p.Device.UMTS == nil {
		return fmt.Errorf("contory: phone %s has no infrastructure link", p.ID())
	}
	_, err := p.Device.UMTS.Publish(infra.ChannelLocation, cxt.Item{
		Type: TypeLocation, Value: fix, Timestamp: p.world.Now(),
	})
	return err
}

// ReportWeather publishes a weather observation to the infrastructure.
func (p *Phone) ReportWeather(typ Type, value float64) error {
	if p.Device.UMTS == nil {
		return fmt.Errorf("contory: phone %s has no infrastructure link", p.ID())
	}
	_, err := p.Device.UMTS.Publish(infra.ChannelWeather, cxt.Item{
		Type: typ, Value: value, Timestamp: p.world.Now(),
	})
	return err
}
