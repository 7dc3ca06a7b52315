// Package experiments regenerates every table and figure of the paper's
// evaluation (§6.1) on the simulated smart-phone testbed:
//
//	Table1    — latency of basic Contory operations
//	Table2    — energy consumption per context item, per mechanism
//	Baseline  — operating-mode power draws (display/back-light/BT/Contory)
//	Figure4   — power trace of extInfra provisioning over UMTS
//	Figure5   — Contory behaviour under BT-GPS failure (strategy switching)
//	MergeDemo — the §4.3 query-merging example
//	Ablations — query merging and strategy switching switched off
//
// Absolute numbers come from the calibrated radio models; the harness
// re-measures them end to end through the full middleware stack, so shape
// regressions (who wins, by what factor) are caught.
package experiments

import (
	"fmt"
	"math"
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
	"contory/internal/vclock"
)

// Testbed reproduces the paper's hardware set-up in simulation: the phone
// under test (Nokia 6630 role) with a BT-GPS receiver, a BT/WiFi peer
// (Nokia 7610 role), two more WiFi communicators forming a 2-hop line
// (Nokia 9500 role), and the remote infrastructure over UMTS.
type Testbed struct {
	Clock    *vclock.Simulator
	Net      *simnet.Network
	Platform *sm.Platform
	Infra    *infra.Infrastructure
	GPS      *gps.Device

	Phone *core.Device // device under test
	Peer  *core.Device // one BT/WiFi hop away
	Far   *core.Device // two WiFi hops away

	Factory *core.Factory

	// Metrics collects middleware-wide instrumentation for the whole
	// testbed (network, energy timelines and the phone's factory).
	Metrics *metrics.Registry
}

// NewTestbed builds the standard testbed with a deterministic seed.
// Options are forwarded to the phone's factory (ablation harnesses pass
// WithMerging/WithFailover here).
func NewTestbed(seed int64, opts ...core.Option) (*Testbed, error) {
	clk := vclock.NewSimulator()
	nw := simnet.New(clk)
	tb := &Testbed{Clock: clk, Net: nw, Metrics: metrics.NewRegistry()}
	nw.SetMetrics(tb.Metrics)

	var err error
	tb.Infra, err = infra.New(infra.Config{Network: nw, NodeID: "infra", UMTS: radio.NewUMTS(seed + 90)})
	if err != nil {
		return nil, fmt.Errorf("experiments: infra: %w", err)
	}
	tb.GPS, err = gps.NewDevice(nw, "bt-gps-1", cxt.Fix{Lat: 60.16, Lon: 24.93, SpeedKn: 5})
	if err != nil {
		return nil, fmt.Errorf("experiments: gps: %w", err)
	}
	tb.Platform = sm.NewPlatform(nw, seed+80)

	tb.Phone, err = core.NewDevice(core.DeviceConfig{
		Network: nw, ID: "phone", SMPlatform: tb.Platform,
		InfraServer: "infra", GPSDevice: "bt-gps-1", Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: phone: %w", err)
	}
	tb.Peer, err = core.NewDevice(core.DeviceConfig{
		Network: nw, ID: "peer", SMPlatform: tb.Platform, InfraServer: "infra", Seed: seed + 10,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: peer: %w", err)
	}
	tb.Far, err = core.NewDevice(core.DeviceConfig{
		Network: nw, ID: "far", SMPlatform: tb.Platform, Seed: seed + 20,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: far: %w", err)
	}
	links := []struct {
		a, b simnet.NodeID
		m    radio.Medium
	}{
		{"phone", "bt-gps-1", radio.MediumBT},
		{"phone", "peer", radio.MediumBT},
		{"phone", "peer", radio.MediumWiFi},
		{"peer", "far", radio.MediumWiFi},
		{"phone", "infra", radio.MediumUMTS},
		{"peer", "infra", radio.MediumUMTS},
	}
	for _, l := range links {
		if err := nw.Connect(l.a, l.b, l.m); err != nil {
			return nil, fmt.Errorf("experiments: link: %w", err)
		}
	}
	tb.Factory = core.NewFactory(tb.Phone, append([]core.Option{core.WithMetrics(tb.Metrics)}, opts...)...)
	return tb, nil
}

// ChaosTargets lists the testbed's devices as fault-injection targets: the
// phone under test (with its BT-GPS receiver and battery), the peer and the
// far communicator. Order is fixed so seeded fault plans are reproducible.
func (tb *Testbed) ChaosTargets() []chaos.Target {
	return []chaos.Target{
		{ID: "phone", GPSNode: "bt-gps-1", GPS: tb.GPS, SetBattery: tb.Phone.Monitor.SetBattery},
		{ID: "peer", SetBattery: tb.Peer.Monitor.SetBattery},
		{ID: "far", SetBattery: tb.Far.Monitor.SetBattery},
	}
}

// Stat is an (average, 90 % confidence half-width) pair over repeated runs.
type Stat struct {
	Avg  float64
	CI90 float64
	N    int
}

// String renders "avg [ci]" with adaptive precision.
func (s Stat) String() string {
	return fmt.Sprintf("%.3f [%.3f]", s.Avg, s.CI90)
}

// newStat computes mean and 90 % confidence half-width (t≈1.833 for n=10,
// approximated by 1.833 for small n and 1.645 for large).
func newStat(values []float64) Stat {
	n := len(values)
	if n == 0 {
		return Stat{}
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	mean := sum / float64(n)
	if n == 1 {
		return Stat{Avg: mean, N: 1}
	}
	var ss float64
	for _, v := range values {
		ss += (v - mean) * (v - mean)
	}
	sd := math.Sqrt(ss / float64(n-1))
	t := 1.645
	if n <= 10 {
		t = 1.833
	}
	return Stat{Avg: mean, CI90: t * sd / math.Sqrt(float64(n)), N: n}
}

// durationsToMs converts to float milliseconds.
func durationsToMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
