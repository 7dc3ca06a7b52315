// Package refs implements Contory's Reference modules (§4.3/§5.1): the
// components that mediate access to the device's communication modules and
// offer programming abstractions over them.
//
//   - InternalReference: sensors integrated in the device.
//   - BTReference: JSR-82-style Bluetooth — inquiry, SDP service discovery,
//     service registration (SDDB), data exchanges, and BT-GPS streaming.
//   - WiFiReference: the Smart Messages platform — tag publication,
//     SM-FINDER queries, content-based multi-hop routing with route caching.
//   - UMTSReference (2G/3GReference): the Fuego event layer — event-based
//     publish/subscribe/request over UMTS, plus the GSM radio's idle
//     signalling power peaks.
//
// Every reference reports communication failures to the ResourcesMonitor,
// which in turn lets the ContextFactory enforce reconfiguration strategies.
package refs

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"contory/internal/cxt"
	"contory/internal/monitor"
	"contory/internal/radio"
	"contory/internal/simnet"
	"contory/internal/vclock"
)

// ErrNoSensor reports an unknown internal sensor.
var ErrNoSensor = errors.New("refs: no such internal sensor")

// Sensor is a sensor integrated in the device, readable synchronously.
type Sensor interface {
	// Name identifies the sensor (e.g. "thermometer-0").
	Name() string
	// Type is the context type the sensor produces.
	Type() cxt.Type
	// Read samples the sensor at the given time.
	Read(now time.Time) (cxt.Item, error)
}

// FuncSensor adapts a closure into a Sensor.
type FuncSensor struct {
	SensorName string
	CxtType    cxt.Type
	ReadFunc   func(now time.Time) (cxt.Item, error)
}

var _ Sensor = FuncSensor{}

// Name implements Sensor.
func (f FuncSensor) Name() string { return f.SensorName }

// Type implements Sensor.
func (f FuncSensor) Type() cxt.Type { return f.CxtType }

// Read implements Sensor.
func (f FuncSensor) Read(now time.Time) (cxt.Item, error) {
	if f.ReadFunc == nil {
		return cxt.Item{}, fmt.Errorf("%w: %s has no read function", ErrNoSensor, f.SensorName)
	}
	return f.ReadFunc(now)
}

// InternalReference mediates access to sensors integrated in the device.
// (The paper's phones had none available at deployment time, so their
// InternalReference was designed but unimplemented; the simulated testbed
// provides virtual integrated sensors.)
type InternalReference struct {
	clock vclock.Clock
	mon   *monitor.Monitor

	mu      sync.Mutex
	sensors []namedSensor // sorted by name; Register keeps the order
}

// namedSensor is a registered sensor under the name it was registered by.
type namedSensor struct {
	name string
	s    Sensor
}

// NewInternalReference returns an InternalReference with no sensors.
func NewInternalReference(clock vclock.Clock, mon *monitor.Monitor) *InternalReference {
	return &InternalReference{clock: clock, mon: mon}
}

// find returns the position of name in the sorted sensor list, or where it
// would be inserted, and whether it is there. The caller holds r.mu.
func (r *InternalReference) find(name string) (int, bool) {
	i := sort.Search(len(r.sensors), func(i int) bool { return r.sensors[i].name >= name })
	return i, i < len(r.sensors) && r.sensors[i].name == name
}

// Register adds (or replaces) an integrated sensor.
func (r *InternalReference) Register(s Sensor) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := namedSensor{name: s.Name(), s: s}
	i, ok := r.find(e.name)
	if ok {
		r.sensors[i] = e
		return
	}
	r.sensors = append(r.sensors, namedSensor{})
	copy(r.sensors[i+1:], r.sensors[i:])
	r.sensors[i] = e
}

// Sensors returns the registered sensor names, sorted.
func (r *InternalReference) Sensors() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.sensors))
	for i, e := range r.sensors {
		out[i] = e.name
	}
	return out
}

// ByType returns the first registered sensor producing the given context
// type (sorted-name order for determinism).
func (r *InternalReference) ByType(t cxt.Type) (Sensor, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.sensors {
		if e.s.Type() == t {
			return e.s, true
		}
	}
	return nil, false
}

// Read samples the named sensor, reporting failures to the monitor. Reading
// an integrated sensor is a local operation comparable to createCxtItem.
func (r *InternalReference) Read(name string) (cxt.Item, error) {
	r.mu.Lock()
	var s Sensor
	if i, ok := r.find(name); ok {
		s = r.sensors[i].s
	}
	r.mu.Unlock()
	if s == nil {
		return cxt.Item{}, fmt.Errorf("%w: %s", ErrNoSensor, name)
	}
	it, err := s.Read(r.clock.Now())
	if err != nil {
		if r.mon != nil {
			r.mon.ReportFailure(name, err.Error())
		}
		return cxt.Item{}, fmt.Errorf("refs: read %s: %w", name, err)
	}
	if r.mon != nil {
		r.mon.ReportRecovery(name)
	}
	if it.Source.Kind == 0 {
		it.Source = cxt.Source{Kind: cxt.SourceSensor, Address: name}
	}
	return it, nil
}

// nodeTimeline is a tiny helper shared by references.
func applyWindows(n *simnet.Node, ws []radio.PowerWindow, at time.Time) {
	if n == nil {
		return
	}
	radio.ApplyWindows(n.Timeline(), at, ws)
}
