// Package chaos is Contory's seeded, vclock-driven fault injector. It turns
// the hand-rolled failure scenarios of the paper's robustness evaluation
// (§6.3, Fig. 5) into a reusable subsystem: a Profile names per-kind fault
// rates, Plan expands it deterministically into a timed fault schedule, and
// an Injector replays that schedule against a simnet testbed — link
// flap/partition, radio outage, degraded RSSI, provider crash/hang/slow
// response, GPS outage, battery-driven shutdown.
//
// Every injected fault and its clearing are recorded in the metrics event
// ring (EventFaultInjected/EventFaultCleared), and Attribute matches the
// middleware's strategy switches back to the faults that plausibly caused
// them, so a fleet summary can assert that no failover happened without a
// cause.
//
// Determinism: Plan is a pure function of (profile, seed, targets,
// duration), and the Injector schedules every apply/clear through the run's
// global Scheduler, so a seeded chaos run produces byte-identical summaries
// at any worker count.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"contory/internal/metrics"
	"contory/internal/radio"
	"contory/internal/simnet"
	"contory/internal/tracing"
	"contory/internal/vclock"
)

// Kind identifies one fault species.
type Kind string

// Fault kinds, roughly ordered from link-level to device-level.
const (
	KindLinkFlap      Kind = "link-flap"      // one link fails, then recovers
	KindPartition     Kind = "partition"      // a node group is split off a medium
	KindRadioOutage   Kind = "radio-outage"   // one node's radio goes off
	KindDegradedRSSI  Kind = "degraded-rssi"  // one node's deliveries become lossy
	KindProviderCrash Kind = "provider-crash" // a node goes down entirely
	KindProviderHang  Kind = "provider-hang"  // a node stops answering (loss = 1)
	KindSlowResponse  Kind = "slow-response"  // a node's deliveries gain latency
	KindGPSOutage     Kind = "gps-outage"     // a BT-GPS device loses its fix
	KindBatteryDrain  Kind = "battery-drain"  // battery empties, device shuts down
)

// Fault is one scheduled fault: applied At after run start, cleared
// Duration later.
type Fault struct {
	ID       string        `json:"id"`
	Kind     Kind          `json:"kind"`
	At       time.Duration `json:"at"`
	Duration time.Duration `json:"duration"`
	Target   string        `json:"target,omitempty"` // primary node
	Peer     string        `json:"peer,omitempty"`   // second endpoint (link faults)
	Medium   radio.Medium  `json:"medium,omitempty"`
	Severity float64       `json:"severity,omitempty"` // degraded-rssi drop probability
	Extra    time.Duration `json:"extra,omitempty"`    // slow-response latency surcharge
	Nodes    []string      `json:"nodes,omitempty"`    // partition member side
}

// GPSDevice is the slice of gps.Device the injector needs.
type GPSDevice interface{ SetFailed(bool) }

// Target is one fault-eligible device: its simnet node ID plus optional
// handles enabling GPS and battery faults against it.
type Target struct {
	ID         string
	GPSNode    string // the paired BT-GPS node's ID, "" when none
	GPS        GPSDevice
	SetBattery func(remaining float64)
}

// Profile names per-kind fault rates (faults per minute across the whole
// target population) plus shared shape parameters. The zero value injects
// nothing.
type Profile struct {
	LinkFlapPerMin    float64
	PartitionPerMin   float64
	RadioOutagePerMin float64
	DegradedPerMin    float64
	CrashPerMin       float64
	HangPerMin        float64
	SlowPerMin        float64
	GPSOutagePerMin   float64
	BatteryPerMin     float64

	MeanDuration      time.Duration // mean fault hold time (default 30 s)
	DegradedLoss      float64       // drop probability of degraded-rssi (default 0.5)
	SlowBy            time.Duration // latency surcharge of slow-response (default 2 s)
	PartitionFraction float64       // fraction of targets split off (default 0.1)
}

// Scale multiplies every per-kind rate by r (fleet.ChaosSpec.Rate).
func (p Profile) Scale(r float64) Profile {
	if r < 0 {
		r = 0
	}
	p.LinkFlapPerMin *= r
	p.PartitionPerMin *= r
	p.RadioOutagePerMin *= r
	p.DegradedPerMin *= r
	p.CrashPerMin *= r
	p.HangPerMin *= r
	p.SlowPerMin *= r
	p.GPSOutagePerMin *= r
	p.BatteryPerMin *= r
	return p
}

// Profiles are the named chaos profiles accepted by fleet.ChaosSpec (a
// scenario file's "chaos": {"profile": ...}).
var Profiles = map[string]Profile{
	"flap":      {LinkFlapPerMin: 4},
	"partition": {PartitionPerMin: 0.5},
	"outage":    {RadioOutagePerMin: 1.5, CrashPerMin: 0.5},
	"hang":      {HangPerMin: 1, SlowPerMin: 1},
	"gps":       {GPSOutagePerMin: 1},
	"battery":   {BatteryPerMin: 0.5},
	"mixed": {
		LinkFlapPerMin: 2, PartitionPerMin: 0.25, RadioOutagePerMin: 0.5,
		DegradedPerMin: 0.5, CrashPerMin: 0.25, HangPerMin: 0.5,
		SlowPerMin: 0.5, GPSOutagePerMin: 0.5, BatteryPerMin: 0.25,
	},
}

// ProfileNames returns the registered profile names, sorted.
func ProfileNames() []string {
	out := make([]string, 0, len(Profiles))
	for n := range Profiles {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// planDefaults fills the profile's shape parameters.
func planDefaults(p Profile) Profile {
	if p.MeanDuration <= 0 {
		p.MeanDuration = 30 * time.Second
	}
	if p.DegradedLoss <= 0 {
		p.DegradedLoss = 0.5
	}
	if p.SlowBy <= 0 {
		p.SlowBy = 2 * time.Second
	}
	if p.PartitionFraction <= 0 {
		p.PartitionFraction = 0.1
	}
	return p
}

// Plan expands a profile into a concrete fault schedule: a pure function of
// its inputs, so identically-seeded plans are identical regardless of how
// the run later executes. Faults whose kind needs a capability no target
// has (GPS, battery) are skipped. The result is sorted by injection time.
func Plan(p Profile, seed int64, targets []Target, duration time.Duration) []Fault {
	if len(targets) == 0 || duration <= 0 {
		return nil
	}
	p = planDefaults(p)
	rng := rand.New(rand.NewSource(seed))

	var gpsTargets, batTargets []Target
	for _, t := range targets {
		if t.GPS != nil {
			gpsTargets = append(gpsTargets, t)
		}
		if t.SetBattery != nil {
			batTargets = append(batTargets, t)
		}
	}

	// drawCount turns a fractional per-minute rate into this minute's count
	// (the fleet churn pattern: integer part plus one probabilistic draw).
	drawCount := func(rate float64) int {
		n := int(rate)
		if frac := rate - float64(n); frac > 0 && rng.Float64() < frac {
			n++
		}
		return n
	}
	pick := func(ts []Target) Target { return ts[rng.Intn(len(ts))] }

	var faults []Fault
	minutes := int(duration / time.Minute)
	for m := 0; m < minutes; m++ {
		base := time.Duration(m) * time.Minute
		stamp := func(f Fault) Fault {
			f.At = base + time.Duration(rng.Int63n(int64(time.Minute)))
			f.Duration = p.MeanDuration/2 + time.Duration(rng.Int63n(int64(p.MeanDuration)))
			return f
		}
		// Fixed kind order: changing it changes every seeded plan.
		for i := 0; i < drawCount(p.LinkFlapPerMin); i++ {
			t := pick(targets)
			f := Fault{Kind: KindLinkFlap, Target: t.ID}
			if t.GPSNode != "" {
				// Flap the phone's BT link to its GPS: the Fig. 5 scenario.
				f.Peer, f.Medium = t.GPSNode, radio.MediumBT
			} else {
				f.Peer, f.Medium = pick(targets).ID, radio.MediumWiFi
			}
			faults = append(faults, stamp(f))
		}
		for i := 0; i < drawCount(p.PartitionPerMin); i++ {
			count := int(p.PartitionFraction * float64(len(targets)))
			if count < 1 {
				count = 1
			}
			start := rng.Intn(len(targets))
			nodes := make([]string, 0, count)
			for j := 0; j < count; j++ {
				nodes = append(nodes, targets[(start+j)%len(targets)].ID)
			}
			faults = append(faults, stamp(Fault{
				Kind: KindPartition, Target: nodes[0], Medium: radio.MediumWiFi, Nodes: nodes,
			}))
		}
		for i := 0; i < drawCount(p.RadioOutagePerMin); i++ {
			medium := radio.MediumWiFi
			if rng.Intn(3) == 0 {
				medium = radio.MediumUMTS
			}
			faults = append(faults, stamp(Fault{
				Kind: KindRadioOutage, Target: pick(targets).ID, Medium: medium,
			}))
		}
		for i := 0; i < drawCount(p.DegradedPerMin); i++ {
			faults = append(faults, stamp(Fault{
				Kind: KindDegradedRSSI, Target: pick(targets).ID,
				Medium: radio.MediumWiFi, Severity: p.DegradedLoss,
			}))
		}
		for i := 0; i < drawCount(p.CrashPerMin); i++ {
			faults = append(faults, stamp(Fault{
				Kind: KindProviderCrash, Target: pick(targets).ID,
			}))
		}
		for i := 0; i < drawCount(p.HangPerMin); i++ {
			faults = append(faults, stamp(Fault{
				Kind: KindProviderHang, Target: pick(targets).ID,
				Medium: radio.MediumWiFi, Severity: 1,
			}))
		}
		for i := 0; i < drawCount(p.SlowPerMin); i++ {
			medium := radio.MediumWiFi
			if rng.Intn(2) == 0 {
				medium = radio.MediumUMTS
			}
			faults = append(faults, stamp(Fault{
				Kind: KindSlowResponse, Target: pick(targets).ID,
				Medium: medium, Extra: p.SlowBy,
			}))
		}
		if len(gpsTargets) > 0 {
			for i := 0; i < drawCount(p.GPSOutagePerMin); i++ {
				faults = append(faults, stamp(Fault{
					Kind: KindGPSOutage, Target: pick(gpsTargets).ID,
				}))
			}
		}
		if len(batTargets) > 0 {
			for i := 0; i < drawCount(p.BatteryPerMin); i++ {
				faults = append(faults, stamp(Fault{
					Kind: KindBatteryDrain, Target: pick(batTargets).ID,
				}))
			}
		}
	}

	sort.SliceStable(faults, func(i, j int) bool {
		if faults[i].At != faults[j].At {
			return faults[i].At < faults[j].At
		}
		if faults[i].Kind != faults[j].Kind {
			return faults[i].Kind < faults[j].Kind
		}
		return faults[i].Target < faults[j].Target
	})
	for i := range faults {
		faults[i].ID = fmt.Sprintf("fault-%04d", i)
	}
	return faults
}

// Scheduler schedules a callback after a delay on the run's global ordering
// domain. *contory.World satisfies it directly (its After runs global
// barrier events between lane batches, which is exactly what keeps chaos
// deterministic under parallel execution); SimClock adapts a bare
// vclock.Clock for single-testbed use.
type Scheduler interface {
	After(d time.Duration, fn func())
}

// SimClock adapts a vclock.Clock (whose After returns a *vclock.Timer) to
// the Scheduler interface.
type SimClock struct{ C vclock.Clock }

// After implements Scheduler.
func (s SimClock) After(d time.Duration, fn func()) { s.C.After(d, fn) }

// Injector replays a fault plan against a testbed, recording every apply
// and clear in the metrics event ring so failovers are attributable.
type Injector struct {
	net     *simnet.Network
	sched   Scheduler
	reg     *metrics.Registry
	tracer  *tracing.Tracer
	targets map[string]Target
	faults  []Fault

	mu    sync.Mutex
	parts map[string]int // fault ID → partition handle
}

// NewInjector wires an injector. reg may be nil (no events recorded).
func NewInjector(net *simnet.Network, sched Scheduler, reg *metrics.Registry, targets []Target, faults []Fault) *Injector {
	byID := make(map[string]Target, len(targets))
	for _, t := range targets {
		byID[t.ID] = t
	}
	return &Injector{
		net:     net,
		sched:   sched,
		reg:     reg,
		targets: byID,
		faults:  append([]Fault(nil), faults...),
		parts:   make(map[string]int),
	}
}

// Faults returns the injector's schedule.
func (in *Injector) Faults() []Fault {
	return append([]Fault(nil), in.faults...)
}

// SetTracer attaches a tracer; spans started on faulted nodes while a fault
// holds are annotated with the fault's ID and kind (nil detaches).
func (in *Injector) SetTracer(tr *tracing.Tracer) { in.tracer = tr }

// faultNodes lists every node a fault blasts: the primary target, the link
// peer, and partition members.
func faultNodes(f Fault) []string {
	nodes := make([]string, 0, 2+len(f.Nodes))
	nodes = append(nodes, f.Target)
	if f.Peer != "" {
		nodes = append(nodes, f.Peer)
	}
	for _, n := range f.Nodes {
		if n != f.Target {
			nodes = append(nodes, n)
		}
	}
	return nodes
}

// Install schedules every fault's apply and clear on the Scheduler. Call
// once, before the run starts.
func (in *Injector) Install() {
	for _, f := range in.faults {
		f := f
		in.sched.After(f.At, func() { in.apply(f) })
		in.sched.After(f.At+f.Duration, func() { in.clear(f) })
	}
}

func (in *Injector) apply(f Fault) {
	switch f.Kind {
	case KindLinkFlap:
		in.net.FailLink(simnet.NodeID(f.Target), simnet.NodeID(f.Peer), f.Medium)
	case KindPartition:
		ids := make([]simnet.NodeID, len(f.Nodes))
		for i, n := range f.Nodes {
			ids[i] = simnet.NodeID(n)
		}
		pid := in.net.Partition(f.Medium, ids...)
		in.mu.Lock()
		in.parts[f.ID] = pid
		in.mu.Unlock()
	case KindRadioOutage:
		if n := in.net.Node(simnet.NodeID(f.Target)); n != nil {
			n.SetRadio(f.Medium, false)
		}
	case KindDegradedRSSI, KindProviderHang:
		in.net.SetNodeLoss(simnet.NodeID(f.Target), f.Medium, f.Severity)
	case KindSlowResponse:
		in.net.SetNodeDelay(simnet.NodeID(f.Target), f.Medium, f.Extra)
	case KindProviderCrash:
		if n := in.net.Node(simnet.NodeID(f.Target)); n != nil {
			n.SetDown(true)
		}
	case KindGPSOutage:
		if t, ok := in.targets[f.Target]; ok && t.GPS != nil {
			t.GPS.SetFailed(true)
		}
	case KindBatteryDrain:
		if t, ok := in.targets[f.Target]; ok && t.SetBattery != nil {
			t.SetBattery(0)
		}
		if n := in.net.Node(simnet.NodeID(f.Target)); n != nil {
			n.SetDown(true)
		}
	}
	in.tracer.FaultActive(f.ID, string(f.Kind), faultNodes(f))
	in.record(metrics.EventFaultInjected, f)
	in.reg.Counter("chaos.faults.injected").Inc()
	in.reg.Counter("chaos.faults.injected." + string(f.Kind)).Inc()
}

func (in *Injector) clear(f Fault) {
	switch f.Kind {
	case KindLinkFlap:
		in.net.RestoreLink(simnet.NodeID(f.Target), simnet.NodeID(f.Peer), f.Medium)
	case KindPartition:
		in.mu.Lock()
		pid, ok := in.parts[f.ID]
		delete(in.parts, f.ID)
		in.mu.Unlock()
		if ok {
			in.net.Heal(pid)
		}
	case KindRadioOutage:
		if n := in.net.Node(simnet.NodeID(f.Target)); n != nil {
			n.SetRadio(f.Medium, true)
		}
	case KindDegradedRSSI, KindProviderHang:
		in.net.SetNodeLoss(simnet.NodeID(f.Target), f.Medium, 0)
	case KindSlowResponse:
		in.net.SetNodeDelay(simnet.NodeID(f.Target), f.Medium, 0)
	case KindProviderCrash:
		if n := in.net.Node(simnet.NodeID(f.Target)); n != nil {
			n.SetDown(false)
		}
	case KindGPSOutage:
		if t, ok := in.targets[f.Target]; ok && t.GPS != nil {
			t.GPS.SetFailed(false)
		}
	case KindBatteryDrain:
		if t, ok := in.targets[f.Target]; ok && t.SetBattery != nil {
			t.SetBattery(1)
		}
		if n := in.net.Node(simnet.NodeID(f.Target)); n != nil {
			n.SetDown(false)
		}
	}
	in.tracer.FaultCleared(f.ID)
	in.record(metrics.EventFaultCleared, f)
	in.reg.Counter("chaos.faults.cleared").Inc()
}

// record stamps a fault lifecycle event into the shared ring: Query carries
// the fault ID, Mechanism the fault kind, Detail the blast target — enough
// to trace a nearby switched event back to its cause.
func (in *Injector) record(kind metrics.EventKind, f Fault) {
	detail := f.Target
	if f.Peer != "" {
		detail += "↔" + f.Peer
	}
	if f.Medium != 0 {
		detail += " over " + f.Medium.String()
	}
	in.reg.Record(metrics.Event{
		At:        in.net.Clock().Now(),
		Query:     f.ID,
		Kind:      kind,
		Mechanism: string(f.Kind),
		Detail:    detail,
	})
}
