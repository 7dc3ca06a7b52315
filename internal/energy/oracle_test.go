package energy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"contory/internal/vclock"
)

// refTimeline is the power timeline as it was before the running
// integrator: the full history as time.Time records, and an integrator that
// re-evaluates the total power at every state change and window boundary
// inside the span. It is the oracle every interval reading must match bit
// for bit.
type refTimeline struct {
	states  map[string][]refPoint
	windows []refWindow
}

type refPoint struct {
	at time.Time
	mw Milliwatts
}

type refWindow struct {
	start, end time.Time
	mw         Milliwatts
	label      string
}

func newRefTimeline() *refTimeline {
	return &refTimeline{states: make(map[string][]refPoint)}
}

func (r *refTimeline) setState(now time.Time, name string, mw Milliwatts) {
	pts := r.states[name]
	if n := len(pts); n > 0 && pts[n-1].mw == mw {
		return
	}
	if n := len(pts); n > 0 && pts[n-1].at.Equal(now) {
		pts[n-1].mw = mw
		return
	}
	r.states[name] = append(pts, refPoint{at: now, mw: mw})
}

func (r *refTimeline) addWindowAt(label string, mw Milliwatts, start time.Time, d time.Duration) {
	if d <= 0 {
		return
	}
	r.windows = append(r.windows, refWindow{start: start, end: start.Add(d), mw: mw, label: label})
}

func (r *refTimeline) powerAt(t time.Time) Milliwatts {
	var total int64
	for _, pts := range r.states {
		i := sort.Search(len(pts), func(i int) bool { return pts[i].at.After(t) })
		if i > 0 {
			total += fixedMW(pts[i-1].mw)
		}
	}
	for _, w := range r.windows {
		if !t.Before(w.start) && t.Before(w.end) {
			total += fixedMW(w.mw)
		}
	}
	return Milliwatts(float64(total) / mwFixedScale)
}

func (r *refTimeline) energyBetween(t0, t1 time.Time) Joules {
	if !t1.After(t0) {
		return 0
	}
	cuts := []time.Time{t0, t1}
	for _, pts := range r.states {
		for _, p := range pts {
			if p.at.After(t0) && p.at.Before(t1) {
				cuts = append(cuts, p.at)
			}
		}
	}
	for _, w := range r.windows {
		if w.start.After(t0) && w.start.Before(t1) {
			cuts = append(cuts, w.start)
		}
		if w.end.After(t0) && w.end.Before(t1) {
			cuts = append(cuts, w.end)
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].Before(cuts[j]) })
	var joules Joules
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if !b.After(a) {
			continue
		}
		p := r.powerAt(a)
		joules += Joules(float64(p) / 1000.0 * b.Sub(a).Seconds())
	}
	return joules
}

func (r *refTimeline) windowEnergy(label string) Joules {
	var joules Joules
	for _, w := range r.windows {
		if w.label == label {
			joules += Joules(float64(w.mw) / 1000.0 * w.end.Sub(w.start).Seconds())
		}
	}
	return joules
}

// program is a random sequence of timeline operations for the oracle
// property: clock steps (to a window edge exactly, or by a random step,
// or none, so that writes and reads share instants), state changes
// (same-instant collapses included), windows of any power (0 mW included)
// that start now or later, and intervals opened, read and closed.
type program []progOp

type progOp struct {
	Kind  uint8 // see run
	Arg   uint8
	Power uint32
	Dur   uint32 // milliseconds
	Off   uint32 // milliseconds
}

const (
	progOps   = 120
	progSlots = 6 // intervals a program may hold open at once
)

var progPowers = []Milliwatts{0, BaseIdle, DisplayOn, BacklightOn, BTScan, ContoryOn, 1190, 300, 0.5}

var progLabels = []string{"bt-inquiry", "wifi-get", "umts", "bt-gps-sample"}

// Generate implements quick.Generator.
func (program) Generate(rng *rand.Rand, _ int) reflect.Value {
	p := make(program, progOps)
	for i := range p {
		p[i] = progOp{
			Kind:  uint8(rng.Intn(14)),
			Arg:   uint8(rng.Intn(256)),
			Power: rng.Uint32(),
			Dur:   uint32(rng.Intn(5000)),
			Off:   uint32(rng.Intn(6) * 500),
		}
	}
	return reflect.ValueOf(p)
}

func (o progOp) power() Milliwatts {
	if o.Power%3 == 0 {
		return Milliwatts(o.Power/3%2_000_000) / 1000
	}
	return progPowers[int(o.Power/3)%len(progPowers)]
}

// run drives a Timeline and the oracle through the program and reports
// the first reading on which they differ.
func (p program) run() error {
	clk := vclock.NewSimulator()
	tl, ref := NewTimeline(clk), newRefTimeline()
	created := clk.Now()
	var slots [progSlots]struct {
		iv     Interval
		opened time.Time
		closed time.Time // zero while open
		value  Joules    // the closing value
	}
	check := func(i int, what string, got, want any) error {
		if got != want {
			return fmt.Errorf("op %d at %v: %s = %v, oracle %v", i, clk.Now().Sub(vclock.Epoch), what, got, want)
		}
		return nil
	}
	var err error
	for i, o := range p {
		now := clk.Now()
		s := &slots[int(o.Arg)%progSlots]
		switch o.Kind {
		case 0, 1: // step to the nearest pending window edge, or to a later one
			var next []time.Time
			for _, w := range ref.windows {
				for _, at := range []time.Time{w.start, w.end} {
					if at.After(now) {
						next = append(next, at)
					}
				}
			}
			if len(next) > 0 {
				sort.Slice(next, func(a, b int) bool { return next[a].Before(next[b]) })
				k := 0
				if o.Kind == 1 {
					k = int(o.Arg) % len(next)
				}
				clk.AdvanceTo(next[k])
			}
		case 2: // a step at nanosecond resolution, or none
			clk.Advance(time.Duration(o.Power%1_700_000_000) * time.Duration(o.Arg%2))
		case 3, 4: // same-instant changes collapse; a repeat is a no-op
			name := fmt.Sprintf("s%d", o.Arg%3)
			tl.SetState(name, o.power())
			ref.setState(now, name, o.power())
		case 5: // a new float on the same fixed-point level still cuts
			name := fmt.Sprintf("s%d", o.Arg%3)
			twin := Milliwatts(0.3)
			if tl.State(name) == twin {
				twin = Milliwatts(math.Nextafter(0.3, 1))
			}
			tl.SetState(name, twin)
			ref.setState(now, name, twin)
		case 6, 7:
			label := progLabels[int(o.Arg)%len(progLabels)]
			d := time.Duration(o.Dur) * time.Millisecond
			if o.Dur%2 == 0 { // on the offsets' grid: windows meet end to start
				d = time.Duration(o.Dur%6) * 500 * time.Millisecond
			}
			start := now.Add(time.Duration(o.Off) * time.Millisecond)
			if o.Kind == 6 {
				tl.AddWindow(label, o.power(), d)
				start = now
			} else {
				tl.AddWindowAt(label, o.power(), start, d)
			}
			ref.addWindowAt(label, o.power(), start, d)
		case 8, 9: // open a slot, or close and reopen it at the same instant
			if s.opened.IsZero() || !s.closed.IsZero() {
				tl.Open(&s.iv)
				s.opened, s.closed = now, time.Time{}
				break
			}
			err = check(i, "Close", s.iv.Close(), ref.energyBetween(s.opened, now))
			tl.Open(&s.iv)
			s.opened = now
		case 10:
			if !s.opened.IsZero() && s.closed.IsZero() {
				s.value = s.iv.Close()
				s.closed = now
				err = check(i, "Close", s.value, ref.energyBetween(s.opened, now))
			}
		case 11:
			switch {
			case s.opened.IsZero():
				err = check(i, "unopened Joules", s.iv.Joules(), Joules(0))
			case s.closed.IsZero():
				err = check(i, "Interval.Joules", s.iv.Joules(), ref.energyBetween(s.opened, now))
			default:
				err = check(i, "closed Joules", s.iv.Joules(), s.value)
			}
		case 12:
			if err = check(i, "Power", tl.Power(), ref.powerAt(now)); err == nil {
				err = check(i, "Timeline.Joules", tl.Joules(), ref.energyBetween(created, now))
			}
		case 13:
			label := progLabels[int(o.Arg)%len(progLabels)]
			err = check(i, "WindowEnergy("+label+")", tl.WindowEnergy(label), ref.windowEnergy(label))
		}
		if err != nil {
			return err
		}
	}
	end := clk.Now()
	for i := range slots {
		s := &slots[i]
		if !s.opened.IsZero() && s.closed.IsZero() {
			if err := check(progOps, "final Close", s.iv.Close(), ref.energyBetween(s.opened, end)); err != nil {
				return err
			}
		}
	}
	return check(progOps, "final Timeline.Joules", tl.Joules(), ref.energyBetween(created, end))
}

// TestEnergySweepMatchesReference drives the running integrator (the
// one-pass sweep over a span's edges, folded as the edges are consumed)
// and the oracle through the same random programs and compares every
// interval reading (open, at close, after close), the power, the energy
// since the timeline was made and every label's window energy with ==.
func TestEnergySweepMatchesReference(t *testing.T) {
	var failure error
	prop := func(p program) bool {
		failure = p.run()
		return failure == nil
	}
	err := quick.Check(prop, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(29))})
	if ce := (*quick.CheckError)(nil); errors.As(err, &ce) {
		t.Fatalf("program %d: %v", ce.Count, failure)
	} else if err != nil {
		t.Fatal(err)
	}
}

// stream is a phone's radio path in miniature: a base state, a display
// that toggles, and a GPS-sample window every second.
func stream(clk *vclock.Simulator, tl *Timeline, i int) {
	if i%16 == 0 {
		tl.SetState("display", DisplayOn*Milliwatts(i/16%2))
	}
	tl.AddWindow("bt-gps-sample", 300, 500*time.Millisecond)
	clk.Advance(time.Second)
}

// BenchmarkAddWindow adds GPS-sample windows the way a phone's radio path
// does, one per virtual second, so each add also consumes the edges of
// the window before it, with one interval open.
func BenchmarkAddWindow(b *testing.B) {
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	tl.SetState("base", BaseIdle)
	var iv Interval
	tl.Open(&iv)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream(clk, tl, i)
	}
}

// BenchmarkIntervalRead reads an interval open over a phone's stream, with
// windows pending, as the fleet summary and a span's end do.
func BenchmarkIntervalRead(b *testing.B) {
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	var iv Interval
	tl.Open(&iv)
	for i := 0; i < 64; i++ {
		stream(clk, tl, i)
	}
	tl.AddWindow("bt-inquiry", 300, 13*time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchJoules = iv.Joules()
	}
}

var benchJoules Joules

// TestAddWindowAllocs and TestIntervalReadAllocs: in steady state a window
// add (with the fold of the edges it passes) and an interval read, open or
// closed, allocate nothing; nor does opening and closing an interval the
// caller holds.
func TestAddWindowAllocs(t *testing.T) {
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	var iv Interval
	tl.Open(&iv)
	for i := 0; i < 16; i++ {
		stream(clk, tl, i)
	}
	i := 16
	if got := testing.AllocsPerRun(100, func() { stream(clk, tl, i); i++ }); got != 0 {
		t.Errorf("AddWindow: %v allocations, want 0", got)
	}
	// A four-connection UMTS burst: twelve windows pending at once.
	burst := func() {
		for c := 0; c < 4; c++ {
			tl.AddWindow("umts-conn-open", 1000, 2*time.Second)
			tl.AddWindowAt("umts-transfer", 1190, clk.Now().Add(2*time.Second), time.Duration(c+1)*time.Second)
			tl.AddWindowAt("umts-tail", 600, clk.Now().Add(time.Duration(c+3)*time.Second), 5*time.Second)
		}
		clk.Advance(20 * time.Second)
	}
	burst()
	if got := testing.AllocsPerRun(20, burst); got != 0 {
		t.Errorf("UMTS burst: %v allocations, want 0", got)
	}
}

func TestIntervalReadAllocs(t *testing.T) {
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	var open, closed Interval
	tl.Open(&open)
	tl.Open(&closed)
	for i := 0; i < 64; i++ {
		stream(clk, tl, i)
	}
	closed.Close()
	for name, read := range map[string]func(){
		"open":        func() { benchJoules = open.Joules() },
		"closed":      func() { benchJoules = closed.Joules() },
		"reopen":      func() { benchJoules = closed.Close(); tl.Open(&closed) },
		"timeline":    func() { benchJoules = tl.Joules() },
		"power":       func() { benchJoules = Joules(tl.Power()) },
		"window-sums": func() { benchJoules = tl.WindowEnergy("bt-gps-sample") },
	} {
		if got := testing.AllocsPerRun(100, read); got != 0 {
			t.Errorf("%s read: %v allocations, want 0", name, got)
		}
	}
}

// TestIntervalLanesDeterministic: four lanes write one timeline at the
// same virtual instants, in whatever order four workers run them. Every
// 250 ms each lane closes its interval, records the reading and reopens
// it, adds windows that start at that instant and later, and flips a state
// of its own. The readings equal those of the serial run: a reading at t
// depends only on edges before t.
func TestIntervalLanesDeterministic(t *testing.T) {
	run := func(workers int) [4][]Joules {
		s := vclock.NewSimulator()
		tl := NewTimeline(s)
		var ivs [4]Interval
		var out [4][]Joules
		for l := range ivs {
			tl.Open(&ivs[l])
			state := fmt.Sprintf("lane-%d", l)
			k := 0
			s.Lane(l).Every(250*time.Millisecond, func() {
				out[l] = append(out[l], ivs[l].Close())
				tl.Open(&ivs[l])
				tl.AddWindow("now", Milliwatts(100*(l+1)), time.Duration(k%3+1)*100*time.Millisecond)
				tl.AddWindowAt("later", 0.5, s.Now().Add(250*time.Millisecond), 125*time.Millisecond)
				tl.SetState(state, Milliwatts(k%2*7))
				k++
			})
		}
		s.RunParallelUntil(vclock.Epoch.Add(20*time.Second), workers)
		for l := range ivs {
			out[l] = append(out[l], ivs[l].Close())
		}
		return out
	}
	serial := run(1)
	if len(serial[0]) != 81 {
		t.Fatalf("lane 0 read %d intervals, want 81", len(serial[0]))
	}
	for i := 0; i < 4; i++ {
		if got := run(4); !reflect.DeepEqual(got, serial) {
			t.Fatalf("run %d with 4 workers read %v, serial %v", i, got, serial)
		}
	}
}
