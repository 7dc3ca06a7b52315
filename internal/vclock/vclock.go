// Package vclock provides a deterministic discrete-event virtual clock.
//
// Every time-dependent component of the Contory reproduction (radio models,
// providers, the query manager, the power meter) reads time and schedules
// work through a Clock. In production-style runs the clock is a Simulator
// that advances virtual time event by event, which makes a 10-minute energy
// experiment complete in microseconds and renders every run deterministic.
//
// # Lanes and parallel batch execution
//
// Fleet-scale runs (internal/fleet) drive thousands of devices; executing
// every event on one goroutine serialises the whole testbed. The simulator
// therefore supports device lanes: a Lane is a Clock handle bound to one
// lane, and RunParallelUntil drains all events that share a virtual
// timestamp across a bounded worker pool, running each lane's events
// sequentially (per-device ordering is preserved) while different lanes
// proceed concurrently. A barrier separates timestamps, and events scheduled
// on the simulator itself (GlobalLane) are barriers within a timestamp, so
// topology-wide mutations never race device work.
//
// # Storage and pooling
//
// Pending events of every lane sit in one min-heap ordered by (at, origin,
// seq), guarded by the simulator mutex. Stopping a timer removes its event
// from the heap in place, and draining a timestamp pops the heap while its
// head is at that instant, which yields the batch already in (origin, seq)
// order. Event objects and per-batch scratch are recycled through free
// lists owned by the simulator, so steady-state dispatch allocates nothing:
// one-shot events return to the pool after execution, and periodic events
// are re-armed in place instead of being re-created each firing.
//
// Determinism contract for parallel runs: a lane event may mutate state
// owned by its own lane, schedule events through lane-bound handles, and
// touch shared state only through order-independent operations (atomic
// counters, fixed-point metric accumulation, keyed hashes). Cross-visible
// mutations (failing links, toggling radios, moving every node) belong in
// GlobalLane events. Under that contract, same-seed runs produce identical
// event timelines at any worker count: same-time events are ordered by
// (origin lane, per-origin sequence), both of which are assigned from
// deterministically-ordered sequential code.
package vclock

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the minimal time source and scheduler used across the code base.
type Clock interface {
	// Now returns the current virtual time.
	Now() time.Time
	// After schedules fn to run once d after Now. It returns a Timer that
	// can be stopped. d < 0 is treated as 0.
	After(d time.Duration, fn func()) *Timer
	// Every schedules fn to run every d, first firing d from Now, until the
	// returned Timer is stopped. d must be > 0.
	Every(d time.Duration, fn func()) *Timer
	// Post schedules fn to run once d after Now, like After, but returns
	// no Timer: the event cannot be stopped, and scheduling it allocates
	// nothing once the event free list is warm. It draws the same
	// ordering key After would, so an After whose Timer nobody keeps can
	// become a Post without moving any event. d < 0 is treated as 0.
	Post(d time.Duration, fn func())
}

// GlobalLane is the lane of events not bound to any device lane. In
// parallel batch runs global events are barriers: every lane event ordered
// before them completes first, and no lane event ordered after them starts
// until they return.
const GlobalLane int32 = -1

// Timer is a handle to a scheduled callback.
type Timer struct {
	stopped atomic.Bool
	sim     *Simulator
	// ev is the timer's currently queued event, guarded by sim.mu (push
	// runs with sim.mu held; Stop flips the atomic first, then takes sim.mu
	// to unlink the event, so there is no lock-order cycle).
	ev *event
}

// Stop cancels the timer and removes its pending event from the heap, so
// stopping N timers shrinks the queue by N immediately (high-churn fleets
// would otherwise grow it unboundedly with dead events). It is safe to call
// multiple times and after the timer has fired.
func (t *Timer) Stop() {
	if t == nil || !t.stopped.CompareAndSwap(false, true) || t.sim == nil {
		return
	}
	s := t.sim
	s.mu.Lock()
	if ev := t.ev; ev != nil && ev.index >= 0 {
		s.removeLocked(ev)
		s.recycleLocked(ev)
	}
	t.ev = nil
	s.mu.Unlock()
}

func (t *Timer) isStopped() bool { return t.stopped.Load() }

// event is a scheduled callback in the simulator's heap.
// at is nanoseconds since the simulator start: an integer key keeps heap
// comparisons to two loads and a subtract instead of time.Time method calls.
type event struct {
	at int64
	// origin and seq form the deterministic tie-break among same-time
	// events: origin is the lane whose (sequential) code scheduled the
	// event, seq that origin's private counter. GlobalLane origins cover
	// the main goroutine and barrier events.
	origin int32
	seq    uint64
	// lane is the execution lane: events sharing a lane run sequentially
	// even in parallel batches. GlobalLane events are barriers.
	lane int32
	// period is the re-arm interval in nanoseconds for Every timers; 0 for
	// one-shot events. Periodic events are re-pushed in place after each
	// firing instead of allocating a fresh event per firing.
	period int64
	fn     func()
	timer  *Timer // nil for one-shot internal events
	index  int    // index in the heap; -1 once popped or removed
}

func evLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.origin != b.origin {
		return a.origin < b.origin
	}
	return a.seq < b.seq
}

// Simulator is a discrete-event Clock. The zero value is not usable; use
// NewSimulator. Simulator is safe for concurrent scheduling. Events run
// sequentially on the goroutine that calls Run/Advance/Step — one
// deterministic timeline — or, via RunParallelUntil, across a worker pool
// with per-lane ordering and per-timestamp barriers.
type Simulator struct {
	mu        sync.Mutex
	start     time.Time
	nowNanos  atomic.Int64 // ns since start; written under mu, read lock-free
	globalSeq uint64
	laneSeq   []uint64
	q         []*event      // pending events, a min-heap ordered by evLess
	free      []*event      // recycled event objects; owned by mu
	runs      atomic.Uint64 // number of events executed
}

var _ Clock = (*Simulator)(nil)

// Epoch is the default simulation start time: an arbitrary, fixed instant so
// runs are reproducible. (June 2005 — the DYNAMOS field trial.)
var Epoch = time.Date(2005, time.June, 10, 12, 0, 0, 0, time.UTC)

// NewSimulator returns a Simulator starting at Epoch.
func NewSimulator() *Simulator {
	return NewSimulatorAt(Epoch)
}

// NewSimulatorAt returns a Simulator starting at the given time.
func NewSimulatorAt(start time.Time) *Simulator {
	return &Simulator{start: start}
}

// Now returns the current virtual time. It is lock-free: hot paths across
// all lanes read the clock constantly.
func (s *Simulator) Now() time.Time {
	return s.start.Add(time.Duration(s.nowNanos.Load()))
}

// Executed returns the number of events executed so far.
func (s *Simulator) Executed() uint64 {
	return s.runs.Load()
}

// Pending returns the number of queued events.
func (s *Simulator) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.q)
}

// After implements Clock; the event is scheduled on the global lane.
func (s *Simulator) After(d time.Duration, fn func()) *Timer {
	return s.afterIn(GlobalLane, GlobalLane, d, fn)
}

func (s *Simulator) afterIn(origin, lane int32, d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	t := &Timer{sim: s}
	s.mu.Lock()
	s.pushLocked(s.nowNanos.Load()+int64(d), fn, t, origin, lane, 0)
	s.mu.Unlock()
	return t
}

// Post implements Clock; the event is scheduled on the global lane.
func (s *Simulator) Post(d time.Duration, fn func()) {
	s.AfterFrom(GlobalLane, GlobalLane, d, fn)
}

// AfterFrom schedules fn to run in execution lane exec, d from now, with the
// deterministic ordering key taken from lane origin. It is the cross-lane
// scheduling primitive: a message send executes sender-side (origin = the
// sender's lane, whose sequential code makes the ordering key
// deterministic) but must be delivered receiver-side (exec = the receiver's
// lane, so receiver state is only touched from its own lane). With both
// lanes GlobalLane it orders exactly like After. The event has no Timer and
// cannot be stopped, so scheduling it allocates nothing once the event free
// list is warm.
func (s *Simulator) AfterFrom(origin, exec int32, d time.Duration, fn func()) {
	if origin < 0 {
		origin = GlobalLane
	}
	if exec < 0 {
		exec = GlobalLane
	}
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	s.pushLocked(s.nowNanos.Load()+int64(d), fn, nil, origin, exec, 0)
	s.mu.Unlock()
}

// Every implements Clock. If d <= 0 the timer never fires and is returned
// already stopped.
func (s *Simulator) Every(d time.Duration, fn func()) *Timer {
	return s.everyIn(GlobalLane, GlobalLane, d, fn)
}

func (s *Simulator) everyIn(origin, lane int32, d time.Duration, fn func()) *Timer {
	t := &Timer{sim: s}
	if d <= 0 {
		t.stopped.Store(true)
		return t
	}
	s.mu.Lock()
	s.pushLocked(s.nowNanos.Load()+int64(d), fn, t, origin, lane, int64(d))
	s.mu.Unlock()
	return t
}

// Lane is a Clock handle bound to one execution lane. Events scheduled
// through it carry the lane as both ordering origin and execution lane, so
// a device whose components all share its lane handle keeps strict
// per-device event ordering even in parallel batches.
type Lane struct {
	s  *Simulator
	id int32
}

var _ Clock = (*Lane)(nil)

// Lane returns the Clock handle for lane id (id >= 0).
func (s *Simulator) Lane(id int) *Lane {
	if id < 0 {
		id = 0
	}
	return &Lane{s: s, id: int32(id)}
}

// Now implements Clock.
func (l *Lane) Now() time.Time { return l.s.Now() }

// After implements Clock on the lane.
func (l *Lane) After(d time.Duration, fn func()) *Timer {
	return l.s.afterIn(l.id, l.id, d, fn)
}

// Post implements Clock on the lane.
func (l *Lane) Post(d time.Duration, fn func()) {
	l.s.AfterFrom(l.id, l.id, d, fn)
}

// Every implements Clock on the lane.
func (l *Lane) Every(d time.Duration, fn func()) *Timer {
	return l.s.everyIn(l.id, l.id, d, fn)
}

// nextSeqLocked draws the next ordering sequence for origin; s.mu held.
func (s *Simulator) nextSeqLocked(origin int32) uint64 {
	if origin == GlobalLane {
		seq := s.globalSeq
		s.globalSeq++
		return seq
	}
	for int(origin) >= len(s.laneSeq) {
		s.laneSeq = append(s.laneSeq, 0)
	}
	seq := s.laneSeq[origin]
	s.laneSeq[origin]++
	return seq
}

func (s *Simulator) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !evLess(s.q[i], s.q[p]) {
			break
		}
		s.q[i], s.q[p] = s.q[p], s.q[i]
		s.q[i].index = i
		s.q[p].index = p
		i = p
	}
}

func (s *Simulator) down(i int) {
	n := len(s.q)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && evLess(s.q[r], s.q[c]) {
			c = r
		}
		if !evLess(s.q[c], s.q[i]) {
			return
		}
		s.q[i], s.q[c] = s.q[c], s.q[i]
		s.q[i].index = i
		s.q[c].index = c
		i = c
	}
}

// queueLocked inserts ev into the heap; s.mu held.
func (s *Simulator) queueLocked(ev *event) {
	ev.index = len(s.q)
	s.q = append(s.q, ev)
	s.up(ev.index)
}

// removeLocked unlinks a queued event from the heap; s.mu held.
func (s *Simulator) removeLocked(ev *event) {
	i := ev.index
	last := len(s.q) - 1
	s.q[i] = s.q[last]
	s.q[i].index = i
	s.q[last] = nil
	s.q = s.q[:last]
	if i < last {
		s.down(i)
		s.up(i)
	}
	ev.index = -1
}

// popMinLocked removes and returns the least event; s.mu held, q non-empty.
func (s *Simulator) popMinLocked() *event {
	ev := s.q[0]
	s.removeLocked(ev)
	return ev
}

// getEventLocked returns a recycled event or a fresh one; s.mu held.
func (s *Simulator) getEventLocked() *event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return ev
	}
	return &event{}
}

// recycleLocked returns a dead event to the pool, severing its timer link so
// a later Stop cannot unlink a reused object; s.mu held.
func (s *Simulator) recycleLocked(ev *event) {
	if ev.timer != nil {
		if ev.timer.ev == ev {
			ev.timer.ev = nil
		}
		ev.timer = nil
	}
	ev.fn = nil
	ev.period = 0
	if len(s.free) < 1<<15 {
		s.free = append(s.free, ev)
	}
}

// pushLocked schedules fn; s.mu must be held.
func (s *Simulator) pushLocked(at int64, fn func(), t *Timer, origin, lane int32, period int64) {
	ev := s.getEventLocked()
	ev.at = at
	ev.origin = origin
	ev.seq = s.nextSeqLocked(origin)
	ev.lane = lane
	ev.period = period
	ev.fn = fn
	ev.timer = t
	if t != nil {
		t.ev = ev
	}
	s.queueLocked(ev)
}

// reschedule re-arms a periodic event after a firing, drawing a fresh
// ordering sequence at the same logical point the firing's own scheduling
// code would (after fn, before any later event in the lane runs), so
// periodic timelines are identical to the pre-pooling implementation.
// If the timer was stopped since the firing began the event is not
// re-armed; its period is zeroed and the caller's recycling path reclaims
// it (Step at once, a batch when its flush returns). reschedule itself
// never touches the free list.
func (s *Simulator) reschedule(ev *event) {
	s.mu.Lock()
	if t := ev.timer; t != nil && t.stopped.Load() {
		ev.period = 0
		s.mu.Unlock()
		return
	}
	ev.at += ev.period
	ev.seq = s.nextSeqLocked(ev.origin)
	if ev.timer != nil {
		ev.timer.ev = ev
	}
	s.queueLocked(ev)
	s.mu.Unlock()
}

// ErrNoEvents is returned by Step when the queue is empty.
var ErrNoEvents = errors.New("vclock: no pending events")

// Step executes the next pending event, advancing the clock to its time.
func (s *Simulator) Step() error {
	for {
		s.mu.Lock()
		if len(s.q) == 0 {
			s.mu.Unlock()
			return ErrNoEvents
		}
		ev := s.popMinLocked()
		if ev.at > s.nowNanos.Load() {
			s.nowNanos.Store(ev.at)
		}
		s.runs.Add(1)
		s.mu.Unlock()
		if ev.timer != nil && ev.timer.isStopped() {
			s.mu.Lock()
			s.recycleLocked(ev)
			s.mu.Unlock()
			continue // cancelled; try the next event
		}
		ev.fn()
		if ev.period > 0 {
			s.reschedule(ev)
		}
		if ev.period == 0 {
			// One-shot, or a periodic whose timer stopped mid-firing.
			s.mu.Lock()
			s.recycleLocked(ev)
			s.mu.Unlock()
		}
		return nil
	}
}

// Advance runs all events scheduled within d from the current time, then
// sets the clock to exactly now+d. Events scheduled by executed events are
// also run if they fall inside the window.
func (s *Simulator) Advance(d time.Duration) {
	if d < 0 {
		return
	}
	s.AdvanceTo(s.Now().Add(d))
}

// AdvanceTo runs all events scheduled up to and including deadline, then
// sets the clock to deadline (if later than the current time).
func (s *Simulator) AdvanceTo(deadline time.Time) {
	dNs := deadline.Sub(s.start).Nanoseconds()
	for {
		s.mu.Lock()
		if len(s.q) == 0 || s.q[0].at > dNs {
			if dNs > s.nowNanos.Load() {
				s.nowNanos.Store(dNs)
			}
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		// Ignore ErrNoEvents races: queue re-checked next iteration.
		_ = s.Step()
	}
}

// Run executes events until the queue is empty or maxEvents events have run.
// It returns the number of events executed. A maxEvents of 0 means no limit
// beyond the internal safety cap.
func (s *Simulator) Run(maxEvents int) int {
	const safetyCap = 50_000_000
	if maxEvents <= 0 || maxEvents > safetyCap {
		maxEvents = safetyCap
	}
	n := 0
	for n < maxEvents {
		if err := s.Step(); err != nil {
			break
		}
		n++
	}
	return n
}

// BatchStats summarises one RunParallelUntil drain. All fields are
// deterministic for a given seed and scenario, independent of worker count.
type BatchStats struct {
	// Events is the number of callbacks executed (stopped timers excluded).
	Events uint64
	// Batches is the number of distinct virtual timestamps drained.
	Batches uint64
	// Groups is the number of parallel lane groups flushed to the pool.
	Groups uint64
	// Barriers is the number of GlobalLane events run between groups.
	Barriers uint64
}

// RunParallelUntil drains all events scheduled up to and including deadline
// across a worker pool, then sets the clock to deadline. workers <= 0 uses
// GOMAXPROCS. Within one timestamp, events execute in deterministic
// (origin, seq) order per lane; different lanes run concurrently;
// GlobalLane events are barriers. The clock only advances once a timestamp
// is fully drained (including events the batch itself scheduled at the same
// instant), so no lane can observe a future time.
func (s *Simulator) RunParallelUntil(deadline time.Time, workers int) BatchStats {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var pool *lanePool
	if workers > 1 {
		pool = newLanePool(workers, s)
		defer pool.close()
	}
	dNs := deadline.Sub(s.start).Nanoseconds()

	var st BatchStats
	var batch []*event
	// Group scratch: groups is the reusable per-flush set of per-lane event
	// lists, groupOf maps a lane to its slot+1 for the current flush (zeroed
	// via touched, not reallocated), all backing slices are recycled.
	groups := make([][]*event, 0, 64)
	var groupOf []int32
	touched := make([]int32, 0, 64)

	flush := func() {
		if len(groups) == 0 {
			return
		}
		st.Groups++
		// A single lane group (the overwhelmingly common flush shape) and
		// single-worker runs execute inline: order is identical to the pool
		// path and the channel round-trip is skipped.
		if pool == nil || len(groups) == 1 {
			st.Events += s.runGroupsInline(groups)
		} else {
			st.Events += pool.run(groups)
		}
		for _, l := range touched {
			groupOf[l] = 0
		}
		touched = touched[:0]
		for i := range groups {
			groups[i] = groups[i][:0]
		}
		groups = groups[:0]
	}

	for {
		s.mu.Lock()
		if len(s.q) == 0 || s.q[0].at > dNs {
			if dNs > s.nowNanos.Load() {
				s.nowNanos.Store(dNs)
			}
			s.mu.Unlock()
			return st
		}
		t := s.q[0].at
		batch = batch[:0]
		for len(s.q) > 0 && s.q[0].at == t {
			batch = append(batch, s.popMinLocked())
		}
		if t > s.nowNanos.Load() {
			s.nowNanos.Store(t)
		}
		s.mu.Unlock()
		st.Batches++

		// batch is in deterministic (origin, seq) order. Group laned
		// events for parallel execution; global events are barriers.
		for _, ev := range batch {
			if ev.timer != nil && ev.timer.isStopped() {
				continue
			}
			if ev.lane == GlobalLane {
				flush()
				st.Barriers++
				st.Events++
				s.runs.Add(1)
				ev.fn()
				if ev.period > 0 {
					s.reschedule(ev)
				}
				continue
			}
			gi := int(0)
			for int(ev.lane) >= len(groupOf) {
				groupOf = append(groupOf, 0)
			}
			if g := groupOf[ev.lane]; g > 0 {
				gi = int(g - 1)
			} else {
				gi = len(groups)
				if gi < cap(groups) {
					groups = groups[:gi+1]
				} else {
					groups = append(groups, nil)
				}
				groupOf[ev.lane] = int32(gi + 1)
				touched = append(touched, ev.lane)
			}
			groups[gi] = append(groups[gi], ev)
		}
		flush()
		// Events scheduled at exactly t during this batch drain on the
		// next loop iteration, before the clock moves past t. Once the
		// flush returns, the batch's events are dead unless a periodic one
		// re-armed itself: recycle the dead ones in one critical section.
		// A re-armed event is queued, or a later callback stopped it and
		// Stop recycled it (fn nil), and it may be queued again as a new
		// event; the batch owns it in neither case.
		s.mu.Lock()
		for _, ev := range batch {
			if ev.index < 0 && ev.fn != nil {
				s.recycleLocked(ev)
			}
		}
		s.mu.Unlock()
	}
}

// runGroupsInline executes a flush's lane groups sequentially on the calling
// goroutine, in group order — the same order a single pool worker would use.
func (s *Simulator) runGroupsInline(groups [][]*event) uint64 {
	var n uint64
	for _, job := range groups {
		for _, ev := range job {
			if ev.timer != nil && ev.timer.isStopped() {
				continue
			}
			ev.fn()
			if ev.period > 0 {
				s.reschedule(ev)
			}
			n++
		}
	}
	s.runs.Add(n)
	return n
}

// lanePool executes per-lane event lists across a fixed set of workers.
// Each job is one lane's ordered slice; a worker runs it sequentially, so
// per-lane ordering survives any worker count.
type lanePool struct {
	jobs chan []*event
	wg   sync.WaitGroup
	sim  *Simulator
	n    atomic.Uint64 // executed in the current run() call
}

func newLanePool(workers int, sim *Simulator) *lanePool {
	p := &lanePool{jobs: make(chan []*event, workers), sim: sim}
	for i := 0; i < workers; i++ {
		go func() {
			for job := range p.jobs {
				for _, ev := range job {
					if ev.timer != nil && ev.timer.isStopped() {
						continue
					}
					ev.fn()
					if ev.period > 0 {
						p.sim.reschedule(ev)
					}
					p.n.Add(1)
				}
				p.wg.Done()
			}
		}()
	}
	return p
}

// run executes one group of lane jobs and returns how many events ran.
func (p *lanePool) run(group [][]*event) uint64 {
	p.n.Store(0)
	p.wg.Add(len(group))
	for _, job := range group {
		p.jobs <- job
	}
	p.wg.Wait()
	n := p.n.Load()
	p.sim.runs.Add(n)
	return n
}

func (p *lanePool) close() { close(p.jobs) }

// SinceEpoch returns the duration elapsed since the simulator start.
func (s *Simulator) SinceEpoch() time.Duration {
	return time.Duration(s.nowNanos.Load())
}
