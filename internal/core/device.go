// Package core implements the heart of Contory (§4.3–4.4): the
// ContextFactory instantiated on each device, the QueryManager, the three
// Facade modules (one per provisioning mechanism), query aggregation,
// control-policy enforcement, and the dynamic reconfiguration that switches
// provisioning strategies when sensors fail or resources run low.
package core

import (
	"fmt"
	"time"

	"contory/internal/access"
	"contory/internal/audit"
	"contory/internal/energy"
	"contory/internal/metrics"
	"contory/internal/monitor"
	"contory/internal/radio"
	"contory/internal/refs"
	"contory/internal/repo"
	"contory/internal/simnet"
	"contory/internal/sm"
	"contory/internal/vclock"
)

// Device bundles the per-phone middleware substrate: the simulated node,
// its references, resources monitor, access controller and repository. One
// ContextFactory is instantiated per device.
type Device struct {
	ID   simnet.NodeID
	Node *simnet.Node
	// Clock is the device's scheduling handle: the shared simulator in
	// serial worlds, the device's lane clock in sharded fleet runs (so all
	// of the device's callbacks execute on its shard).
	Clock vclock.Clock

	Internal *refs.InternalReference
	BT       *refs.BTReference
	WiFi     *refs.WiFiReference
	UMTS     *refs.UMTSReference

	Monitor *monitor.Monitor
	Access  *access.Controller
	Repo    *repo.Repository

	// GPSDevice is the BT-GPS receiver paired with this phone, if any.
	GPSDevice simnet.NodeID

	// Radio model samplers (exposed for experiment harnesses).
	RadioBT   *radio.BT
	RadioWiFi *radio.WiFi
	RadioUMTS *radio.UMTS
}

// DeviceConfig configures a Device.
type DeviceConfig struct {
	// Network is the simulated testbed fabric (required).
	Network *simnet.Network
	// ID names the device's node, created by NewDevice (required).
	ID simnet.NodeID
	// Position is the node's initial location.
	Position simnet.Position
	// SMPlatform enables the WiFiReference when set.
	SMPlatform *sm.Platform
	// InfraServer enables the UMTSReference when set (the fuego server's
	// node id).
	InfraServer simnet.NodeID
	// GPSDevice pairs a BT-GPS receiver for location provisioning.
	GPSDevice simnet.NodeID
	// Seed drives the device's radio samplers (deterministic runs).
	Seed int64
	// Security selects the AccessController mode (default low).
	Security access.SecurityMode
}

// NewDevice creates the node and wires up the middleware substrate. The
// device starts in the paper's measurement posture: GSM radio off, display
// off, back-light off, BT in page/inquiry scan, Contory running.
func NewDevice(cfg DeviceConfig) (*Device, error) {
	if cfg.Network == nil {
		return nil, fmt.Errorf("core: device needs a network")
	}
	node, err := cfg.Network.AddNode(cfg.ID, cfg.Position)
	if err != nil {
		return nil, fmt.Errorf("core: device node: %w", err)
	}
	clk := cfg.Network.ClockFor(cfg.ID)
	if cfg.Security == 0 {
		cfg.Security = access.LowSecurity
	}
	d := &Device{
		ID:        cfg.ID,
		Node:      node,
		Clock:     clk,
		Monitor:   monitor.New(clk),
		Access:    access.New(clk, cfg.Security, 0),
		Repo:      repo.New(clk, 0),
		GPSDevice: cfg.GPSDevice,
		RadioBT:   radio.NewBT(cfg.Seed + 1),
		RadioWiFi: radio.NewWiFi(cfg.Seed + 2),
		RadioUMTS: radio.NewUMTS(cfg.Seed + 3),
	}
	// The repository's eviction stream is seeded per device so cache
	// contents are identical across same-seed runs at any worker count.
	d.Repo.SetEvictionSeed(cfg.Seed)
	d.Internal = refs.NewInternalReference(clk, d.Monitor)
	d.BT, err = refs.NewBTReference(cfg.Network, cfg.ID, d.RadioBT, d.Monitor)
	if err != nil {
		return nil, fmt.Errorf("core: bt reference: %w", err)
	}
	if cfg.SMPlatform != nil {
		d.WiFi, err = refs.NewWiFiReference(cfg.SMPlatform, cfg.ID, d.RadioWiFi, d.Monitor)
		if err != nil {
			return nil, fmt.Errorf("core: wifi reference: %w", err)
		}
	}
	if cfg.InfraServer != "" {
		d.UMTS, err = refs.NewUMTSReference(cfg.Network, cfg.ID, cfg.InfraServer, d.RadioUMTS, d.Monitor)
		if err != nil {
			return nil, fmt.Errorf("core: umts reference: %w", err)
		}
	}
	// Baseline power posture (§6.1): base idle plus the Contory runtime.
	tl := node.Timeline()
	tl.SetState("base", energy.BaseIdle)
	tl.SetState("contory", energy.ContoryOn)
	return d, nil
}

// attachMetrics points the device's references and power timeline at the
// factory's registry (references are created before the factory, so the
// registry arrives after construction).
func (d *Device) attachMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	d.Node.Timeline().SetMetrics(reg)
	if d.BT != nil {
		d.BT.SetMetrics(reg)
	}
	if d.WiFi != nil {
		d.WiFi.SetMetrics(reg)
	}
	if d.UMTS != nil {
		d.UMTS.SetMetrics(reg)
	}
}

// attachAudit points the device's Bluetooth reference at the factory's
// invariant auditor, so in-flight request accounting joins the refcount
// conservation law. Nil-safe like attachMetrics.
func (d *Device) attachAudit(a *audit.Auditor) {
	if a == nil {
		return
	}
	if d.BT != nil {
		d.BT.SetAudit(a, string(d.ID))
	}
}

// StartBatteryAccounting begins draining the device battery from the power
// timeline every interval and feeding the remaining charge into the
// ResourcesMonitor, so control policies such as
// <batteryLevel, equal, low> → reducePower fire from actual consumption.
// It returns a stop function.
//
// Each period closes one interval on the power timeline and reopens it at
// the same instant, so the battery drains exactly what was drawn.
func (d *Device) StartBatteryAccounting(interval time.Duration) (stop func()) {
	tl := d.Node.Timeline()
	var drawn energy.Interval
	tl.Open(&drawn)
	t := d.Clock.Every(interval, func() {
		d.Battery().Drain(drawn.Close())
		tl.Open(&drawn)
		d.Monitor.SetBattery(d.Battery().Remaining())
	})
	return func() {
		t.Stop()
		drawn.Close()
	}
}

// Battery returns the device's battery model.
func (d *Device) Battery() *energy.Battery { return d.Node.Battery() }

// SetDisplay switches the display power state.
func (d *Device) SetDisplay(on bool) {
	if on {
		d.Node.Timeline().SetState("display", energy.DisplayOn)
		return
	}
	d.Node.Timeline().SetState("display", 0)
	// Back-light cannot be on with the display off.
	d.Node.Timeline().SetState("backlight", 0)
}

// SetBacklight switches the back-light power state (implies display on).
func (d *Device) SetBacklight(on bool) {
	if on {
		d.Node.Timeline().SetState("display", energy.DisplayOn)
		d.Node.Timeline().SetState("backlight", energy.BacklightOn)
		return
	}
	d.Node.Timeline().SetState("backlight", 0)
}
