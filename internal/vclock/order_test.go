package vclock

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"contory/internal/draw"
)

// TestRunOrderMatchesReference runs random scheduling programs on the
// Simulator and on a reference scheduler that keeps pending events in a
// plain slice. Advance and a one-worker RunParallelUntil must run every
// callback in the reference's order at the reference's time; a four-worker
// RunParallelUntil must run each lane's callbacks in that order, with the
// same BatchStats and Executed count.
func TestRunOrderMatchesReference(t *testing.T) {
	prop := func(key uint64, lanes uint8) bool {
		n := int32(lanes%orderLanes) + 1
		for _, c := range []struct {
			name     string
			parallel bool
			workers  int
		}{
			{"Advance", false, 1},
			{"RunParallelUntil/w1", true, 1},
			{"RunParallelUntil/w4", true, 4},
		} {
			want := runOrderRef(key, n, c.parallel)
			got := runOrderSim(key, n, c.parallel, c.workers)
			if msg := got.mismatch(want, c.workers > 1); msg != "" {
				t.Logf("%s, key %#x, %d lanes: %s", c.name, key, n, msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// orderLanes is the most device lanes a program uses; orderMaxDepth bounds
// how many generations of callbacks one root event starts.
const (
	orderLanes    = 8
	orderMaxDepth = 3
)

// orderDelays are the delays and periods a program draws from. The set is
// small and holds 0, so same-instant ties are common (and an Every of 0
// makes a timer that never fires).
var orderDelays = [...]time.Duration{0, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}

// orderDeadlines are the instants, from the start, that a program is run
// to, one call each.
var orderDeadlines = [...]time.Duration{6 * time.Millisecond, 15 * time.Millisecond}

// orderDriver is the scheduling surface a program uses; the Simulator and
// the reference both provide it. after, every and post bind lane as both
// the ordering origin and the execution lane, as Clock handles do.
type orderDriver interface {
	now() time.Duration
	after(lane int32, d time.Duration, fn func()) (stop func())
	every(lane int32, d time.Duration, fn func()) (stop func())
	post(lane int32, d time.Duration, fn func())
	afterFrom(origin, exec int32, d time.Duration, fn func())
}

// orderRec is one callback run: which event, at what virtual time.
type orderRec struct {
	id uint64
	at time.Duration
}

// orderProgram is a random scheduling program. A callback records itself
// in its execution lane's log, schedules up to two more events and, one
// time in three, stops an earlier timer: a queued, periodic, fired or
// already stopped one. Every choice is a keyed draw on the event's
// identity and firing count, so any scheduler that runs each lane's
// callbacks in the same order sees the same program. It keeps the
// determinism contract: lane code schedules with its own lane as origin
// and stops only timers whose events run in its lane; global code may do
// either for any lane.
type orderProgram struct {
	key    uint64
	lanes  int32
	d      orderDriver
	serial bool
	// all is every callback in run order, kept on serial runs only.
	// logs[l+1] is lane l's callbacks in run order, logs[0] the global
	// lane's; timers[l+1] holds the stop functions of the timers whose
	// events run in lane l.
	all    []orderRec
	logs   [orderLanes + 1][]orderRec
	timers [orderLanes + 1][]func()
}

// pickLane draws GlobalLane or one of the program's lanes.
func (p *orderProgram) pickLane(r *draw.Stream) int32 {
	return int32(r.Intn(int(p.lanes)+1)) - 1
}

// schedule makes event id at the given depth from code running in lane
// from (GlobalLane for the test body and the global lane's callbacks).
func (p *orderProgram) schedule(from int32, id uint64, depth int) {
	r := draw.New(draw.Key(p.key, id))
	origin := from
	if from == GlobalLane {
		origin = p.pickLane(&r)
	}
	d := orderDelays[r.Intn(len(orderDelays))]
	switch kind := r.Intn(4); {
	case kind == 1 && depth <= 1:
		stop := p.d.every(origin, d, p.callback(origin, id, depth))
		p.timers[origin+1] = append(p.timers[origin+1], stop)
	case kind == 2:
		p.d.post(origin, d, p.callback(origin, id, depth))
	case kind == 3:
		exec := p.pickLane(&r)
		p.d.afterFrom(origin, exec, d, p.callback(exec, id, depth))
	default:
		stop := p.d.after(origin, d, p.callback(origin, id, depth))
		p.timers[origin+1] = append(p.timers[origin+1], stop)
	}
}

// callback returns the function of event id, which runs in lane exec.
func (p *orderProgram) callback(exec int32, id uint64, depth int) func() {
	var firing uint64
	return func() {
		rec := orderRec{id, p.d.now()}
		p.logs[exec+1] = append(p.logs[exec+1], rec)
		if p.serial {
			p.all = append(p.all, rec)
		}
		r := draw.New(draw.Key(p.key, id, firing))
		firing++
		if depth < orderMaxDepth {
			for k := r.Intn(3); k > 0; k-- {
				p.schedule(exec, r.Uint64(), depth+1)
			}
		}
		if r.Intn(3) == 0 {
			pool := exec
			if exec == GlobalLane {
				pool = p.pickLane(&r)
			}
			if stops := p.timers[pool+1]; len(stops) > 0 {
				stops[r.Intn(len(stops))]()
			}
		}
	}
}

// orderRun is what one scheduler did with a program.
type orderRun struct {
	all      []orderRec
	logs     [orderLanes + 1][]orderRec
	stats    []BatchStats // one per deadline; parallel runs only
	executed uint64
	pending  int
	now      time.Duration
}

// mismatch describes the first difference from the reference run want, or
// returns "". With perLane the run order is compared lane by lane only.
func (got orderRun) mismatch(want orderRun, perLane bool) string {
	if !perLane {
		if msg := recsMismatch(got.all, want.all); msg != "" {
			return "run order: " + msg
		}
	}
	for i := range got.logs {
		if msg := recsMismatch(got.logs[i], want.logs[i]); msg != "" {
			return fmt.Sprintf("lane %d: %s", i-1, msg)
		}
	}
	switch {
	case !slices.Equal(got.stats, want.stats):
		return fmt.Sprintf("BatchStats %+v, reference %+v", got.stats, want.stats)
	case got.executed != want.executed:
		return fmt.Sprintf("Executed %d, reference %d", got.executed, want.executed)
	case got.pending != want.pending:
		return fmt.Sprintf("Pending %d, reference %d", got.pending, want.pending)
	case got.now != want.now:
		return fmt.Sprintf("clock at %v, reference %v", got.now, want.now)
	}
	return ""
}

func recsMismatch(got, want []orderRec) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("callback %d is %+v, reference %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d callbacks ran, reference %d", len(got), len(want))
	}
	return ""
}

// startOrderProgram makes program key on driver d and schedules its root
// events from the test body.
func startOrderProgram(key uint64, lanes int32, d orderDriver, serial bool) *orderProgram {
	p := &orderProgram{key: key, lanes: lanes, d: d, serial: serial}
	for i := 0; i < 4+int(key%13); i++ {
		p.schedule(GlobalLane, uint64(i), 0)
	}
	return p
}

func runOrderSim(key uint64, lanes int32, parallel bool, workers int) orderRun {
	s := NewSimulator()
	p := startOrderProgram(key, lanes, simDriver{s}, workers <= 1)
	var stats []BatchStats
	for _, dl := range orderDeadlines {
		if parallel {
			stats = append(stats, s.RunParallelUntil(Epoch.Add(dl), workers))
		} else {
			s.AdvanceTo(Epoch.Add(dl))
		}
	}
	return orderRun{p.all, p.logs, stats, s.Executed(), s.Pending(), s.SinceEpoch()}
}

func runOrderRef(key uint64, lanes int32, parallel bool) orderRun {
	r := &refSim{seqs: make(map[int32]uint64)}
	p := startOrderProgram(key, lanes, r, true)
	var stats []BatchStats
	for _, dl := range orderDeadlines {
		if parallel {
			stats = append(stats, r.runParallelUntil(int64(dl)))
		} else {
			r.advanceTo(int64(dl))
		}
	}
	return orderRun{p.all, p.logs, stats, r.executed, len(r.pending), time.Duration(r.nowNs)}
}

// simDriver runs a program on a Simulator.
type simDriver struct{ s *Simulator }

func (d simDriver) clock(lane int32) Clock {
	if lane == GlobalLane {
		return d.s
	}
	return d.s.Lane(int(lane))
}

func (d simDriver) now() time.Duration { return d.s.SinceEpoch() }

func (d simDriver) after(lane int32, dt time.Duration, fn func()) func() {
	t := d.clock(lane).After(dt, fn)
	return func() { t.Stop() }
}

func (d simDriver) every(lane int32, dt time.Duration, fn func()) func() {
	t := d.clock(lane).Every(dt, fn)
	return func() { t.Stop() }
}

func (d simDriver) post(lane int32, dt time.Duration, fn func()) { d.clock(lane).Post(dt, fn) }

func (d simDriver) afterFrom(origin, exec int32, dt time.Duration, fn func()) {
	d.s.AfterFrom(origin, exec, dt, fn)
}

// refSim is the reference scheduler. Pending events sit in a plain slice
// that each step scans. Sequence numbers follow the Simulator's rules: one
// counter per origin, one draw per scheduled event and per periodic
// re-arm (after the firing's callback returns), none for an Every that
// never fires.
type refSim struct {
	nowNs    int64
	seqs     map[int32]uint64
	pending  []*refEvent
	executed uint64
}

type refEvent struct {
	at, period   int64
	origin, lane int32
	seq          uint64
	fn           func()
	timer        *refTimer // nil for Post and AfterFrom events
}

type refTimer struct{ stopped bool }

func refLess(a, b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.origin != b.origin {
		return a.origin < b.origin
	}
	return a.seq < b.seq
}

func (r *refSim) push(at int64, origin, lane int32, period int64, fn func(), t *refTimer) {
	seq := r.seqs[origin]
	r.seqs[origin]++
	r.pending = append(r.pending, &refEvent{at: at, period: period, origin: origin, lane: lane, seq: seq, fn: fn, timer: t})
}

func (r *refSim) now() time.Duration { return time.Duration(r.nowNs) }

func (r *refSim) after(lane int32, d time.Duration, fn func()) func() {
	t := &refTimer{}
	r.push(r.nowNs+int64(d), lane, lane, 0, fn, t)
	return func() { r.stop(t) }
}

func (r *refSim) every(lane int32, d time.Duration, fn func()) func() {
	t := &refTimer{stopped: d <= 0}
	if d > 0 {
		r.push(r.nowNs+int64(d), lane, lane, int64(d), fn, t)
	}
	return func() { r.stop(t) }
}

func (r *refSim) post(lane int32, d time.Duration, fn func()) {
	r.push(r.nowNs+int64(d), lane, lane, 0, fn, nil)
}

func (r *refSim) afterFrom(origin, exec int32, d time.Duration, fn func()) {
	r.push(r.nowNs+int64(d), origin, exec, 0, fn, nil)
}

// stop marks the timer stopped and drops its queued event, if any; an event
// already taken for the current instant is skipped when its turn comes.
func (r *refSim) stop(t *refTimer) {
	t.stopped = true
	r.pending = slices.DeleteFunc(r.pending, func(e *refEvent) bool { return e.timer == t })
}

func (r *refSim) stopped(e *refEvent) bool { return e.timer != nil && e.timer.stopped }

// run executes e unless its timer is stopped, then re-arms a periodic
// event whose timer is still live. It reports whether e ran.
func (r *refSim) run(e *refEvent) bool {
	if r.stopped(e) {
		return false
	}
	r.executed++
	e.fn()
	if e.period > 0 && !e.timer.stopped {
		r.push(e.at+e.period, e.origin, e.lane, e.period, e.fn, e.timer)
	}
	return true
}

// next returns the index of the least pending event, or -1.
func (r *refSim) next() int {
	best := -1
	for i, e := range r.pending {
		if best < 0 || refLess(e, r.pending[best]) {
			best = i
		}
	}
	return best
}

// advanceTo runs the least (at, origin, seq) event until the next one is
// after deadline, then sets the clock to deadline.
func (r *refSim) advanceTo(deadline int64) {
	for {
		i := r.next()
		if i < 0 || r.pending[i].at > deadline {
			r.nowNs = max(r.nowNs, deadline)
			return
		}
		e := r.pending[i]
		r.pending = slices.Delete(r.pending, i, i+1)
		r.nowNs = e.at
		r.run(e)
	}
}

// runParallelUntil runs instant by instant. It takes every event of the
// least pending instant in (origin, seq) order and drops those whose timer
// is stopped by the time their turn comes. A global-lane event is a
// barrier: the lane events before it run first, grouped by lane in the
// order of each lane's first event, then the barrier runs alone. Events
// the instant schedules for itself run as the next instant.
func (r *refSim) runParallelUntil(deadline int64) BatchStats {
	var st BatchStats
	for {
		i := r.next()
		if i < 0 || r.pending[i].at > deadline {
			r.nowNs = max(r.nowNs, deadline)
			return st
		}
		t := r.pending[i].at
		var batch []*refEvent
		r.pending = slices.DeleteFunc(r.pending, func(e *refEvent) bool {
			if e.at == t {
				batch = append(batch, e)
				return true
			}
			return false
		})
		slices.SortFunc(batch, func(a, b *refEvent) int {
			if refLess(a, b) {
				return -1
			}
			return 1
		})
		r.nowNs = t
		st.Batches++
		var groups [][]*refEvent
		flush := func() {
			if len(groups) == 0 {
				return
			}
			st.Groups++
			for _, g := range groups {
				for _, e := range g {
					if r.run(e) {
						st.Events++
					}
				}
			}
			groups = nil
		}
		for _, e := range batch {
			if r.stopped(e) {
				continue
			}
			if e.lane == GlobalLane {
				flush()
				if r.run(e) {
					st.Barriers++
					st.Events++
				}
				continue
			}
			g := slices.IndexFunc(groups, func(g []*refEvent) bool { return g[0].lane == e.lane })
			if g < 0 {
				g = len(groups)
				groups = append(groups, nil)
			}
			groups[g] = append(groups[g], e)
		}
		flush()
	}
}
