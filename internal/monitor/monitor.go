// Package monitor implements the ResourcesMonitor of the Contory
// architecture (§4.3): an updated view on the status of hardware items
// (device drivers, radios, sensors), the device's overall power state, and
// available memory. References report failures and recoveries here; the
// monitor fans events out to the ContextFactory, which enforces
// reconfiguration strategies (e.g. moving location provisioning from a
// LocalLocationProvider to an AdHocLocationProvider when the BT-GPS
// disconnects).
package monitor

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"time"

	"contory/internal/vclock"
)

// EventKind classifies monitor events.
type EventKind int

// Event kinds.
const (
	EventFailure EventKind = iota + 1
	EventRecovery
	EventLowPower
	EventLowMemory
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventFailure:
		return "failure"
	case EventRecovery:
		return "recovery"
	case EventLowPower:
		return "lowPower"
	case EventLowMemory:
		return "lowMemory"
	default:
		return "unknown"
	}
}

// Event is one resource status change.
type Event struct {
	Kind     EventKind
	Resource string // e.g. "bt-gps-1", "wifi", "battery", "memory"
	Reason   string
	At       time.Time
}

// Level is a coarse resource level used by control policies
// (<batteryLevel, equal, low>).
type Level string

// Levels.
const (
	LevelLow    Level = "low"
	LevelMedium Level = "medium"
	LevelHigh   Level = "high"
)

// Listener receives monitor events.
type Listener func(Event)

// listener is one registration.
type listener struct {
	id int
	fn Listener
}

// Monitor tracks resource health and coarse power/memory levels.
type Monitor struct {
	clock vclock.Clock

	mu sync.Mutex
	// listeners are the registered listeners in registration order, which
	// is id order since ids only grow. The slice is copy-on-write: OnEvent
	// appends past every snapshot's end and cancel builds a new slice, so
	// emit fans out over a snapshot without copying it.
	listeners   []listener
	nextID      int
	failed      map[string]string // resource → reason
	battery     float64           // remaining fraction 0..1
	memoryUsed  int
	memoryTotal int
	events      []Event
}

// New returns a Monitor with a full battery and 9 MB of memory (the
// paper's phones have 9 MB of RAM).
func New(clock vclock.Clock) *Monitor {
	return &Monitor{
		clock:       clock,
		failed:      make(map[string]string),
		battery:     1.0,
		memoryTotal: 9 << 20,
	}
}

// OnEvent registers a listener for all subsequent events and returns a
// cancel function that unregisters it. Cancel is idempotent; a cancelled
// listener receives no events except those whose fan-out had already
// snapshotted the listener set when cancel ran.
func (m *Monitor) OnEvent(l Listener) (cancel func()) {
	m.mu.Lock()
	id := m.nextID
	m.nextID++
	m.listeners = append(m.listeners, listener{id: id, fn: l})
	m.mu.Unlock()
	return func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		i, found := slices.BinarySearchFunc(m.listeners, id, func(l listener, id int) int { return cmp.Compare(l.id, id) })
		if found {
			m.listeners = slices.Delete(slices.Clone(m.listeners), i, i+1)
		}
	}
}

func (m *Monitor) emit(ev Event) {
	ev.At = m.clock.Now()
	m.mu.Lock()
	m.events = append(m.events, ev)
	// Fan out in registration order so multi-listener reactions (factory
	// policy enforcement, fleet collectors) are deterministic. A listener
	// cancelled during the fan-out still gets this event: ls is the
	// snapshot taken here.
	ls := m.listeners
	m.mu.Unlock()
	for _, l := range ls {
		l.fn(ev)
	}
}

// ReportFailure marks a resource as failed and notifies listeners. Repeated
// failures of an already-failed resource are not re-emitted.
func (m *Monitor) ReportFailure(resource, reason string) {
	m.mu.Lock()
	_, already := m.failed[resource]
	m.failed[resource] = reason
	m.mu.Unlock()
	if already {
		return
	}
	m.emit(Event{Kind: EventFailure, Resource: resource, Reason: reason})
}

// ReportRecovery clears a resource failure and notifies listeners.
func (m *Monitor) ReportRecovery(resource string) {
	m.mu.Lock()
	_, wasFailed := m.failed[resource]
	delete(m.failed, resource)
	m.mu.Unlock()
	if !wasFailed {
		return
	}
	m.emit(Event{Kind: EventRecovery, Resource: resource})
}

// Failed reports whether the resource is currently marked failed.
func (m *Monitor) Failed(resource string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, failed := m.failed[resource]
	return failed
}

// FailedResources returns all failed resources, sorted.
func (m *Monitor) FailedResources() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.failed))
	for r := range m.failed {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// SetBattery updates the remaining battery fraction [0,1]; crossing below
// 0.2 emits EventLowPower.
func (m *Monitor) SetBattery(remaining float64) {
	if remaining < 0 {
		remaining = 0
	}
	if remaining > 1 {
		remaining = 1
	}
	m.mu.Lock()
	prev := m.battery
	m.battery = remaining
	m.mu.Unlock()
	if prev >= lowBatteryThreshold && remaining < lowBatteryThreshold {
		m.emit(Event{Kind: EventLowPower, Resource: "battery"})
	}
}

// SetMemory updates used/total memory; crossing above 85 % emits
// EventLowMemory.
func (m *Monitor) SetMemory(used, total int) {
	if total <= 0 {
		return
	}
	m.mu.Lock()
	prevFrac := float64(m.memoryUsed) / float64(m.memoryTotal)
	m.memoryUsed, m.memoryTotal = used, total
	frac := float64(used) / float64(total)
	m.mu.Unlock()
	if prevFrac <= highMemoryThreshold && frac > highMemoryThreshold {
		m.emit(Event{Kind: EventLowMemory, Resource: "memory"})
	}
}

const (
	lowBatteryThreshold = 0.2
	highMemoryThreshold = 0.85
)

// BatteryLevel returns the coarse battery level for policy conditions.
func (m *Monitor) BatteryLevel() Level {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case m.battery < lowBatteryThreshold:
		return LevelLow
	case m.battery < 0.6:
		return LevelMedium
	default:
		return LevelHigh
	}
}

// MemoryLevel returns the coarse free-memory level for policy conditions.
func (m *Monitor) MemoryLevel() Level {
	m.mu.Lock()
	defer m.mu.Unlock()
	frac := float64(m.memoryUsed) / float64(m.memoryTotal)
	switch {
	case frac > highMemoryThreshold:
		return LevelLow
	case frac > 0.5:
		return LevelMedium
	default:
		return LevelHigh
	}
}

// Attributes returns the current snapshot as policy-condition attributes.
func (m *Monitor) Attributes() map[string]string {
	attrs := map[string]string{
		"batteryLevel": string(m.BatteryLevel()),
		"memoryLevel":  string(m.MemoryLevel()),
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for r := range m.failed {
		attrs["failed:"+r] = "true"
	}
	return attrs
}

// Events returns a copy of the event history.
func (m *Monitor) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Event, len(m.events))
	copy(out, m.events)
	return out
}
