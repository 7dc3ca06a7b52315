package energy

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"contory/internal/vclock"
)

// appendTimeline is the timeline as it was when it kept a window log:
// every state change point and every window of the run appended to
// slices, and an integrator that sums the edges at or before a span's
// start into its power, sorts the edges inside it and sweeps them once.
// It is the oracle for what replaced the log (the heap of pending edges,
// merged per instant, and the per-label window totals), which must give
// its readings bit for bit.
type appendTimeline struct {
	states  map[string][]logPoint
	windows []logWindow
}

type logPoint struct {
	at int64
	mw Milliwatts
}

type logWindow struct {
	start, end int64
	mw         Milliwatts
	label      string
}

func newAppendTimeline() *appendTimeline {
	return &appendTimeline{states: make(map[string][]logPoint)}
}

func (a *appendTimeline) setState(at int64, name string, mw Milliwatts) {
	pts := a.states[name]
	if n := len(pts); n > 0 && pts[n-1].mw == mw {
		return
	}
	if n := len(pts); n > 0 && pts[n-1].at == at {
		pts[n-1].mw = mw
		return
	}
	a.states[name] = append(pts, logPoint{at: at, mw: mw})
}

func (a *appendTimeline) addWindowAt(label string, mw Milliwatts, start int64, d time.Duration) {
	if d <= 0 {
		return
	}
	a.windows = append(a.windows, logWindow{start: start, end: start + int64(d), mw: mw, label: label})
}

func (a *appendTimeline) powerAt(at int64) Milliwatts {
	var total int64
	for _, pts := range a.states {
		if i := sort.Search(len(pts), func(i int) bool { return pts[i].at > at }); i > 0 {
			total += fixedMW(pts[i-1].mw)
		}
	}
	for _, w := range a.windows {
		if w.start <= at && at < w.end {
			total += fixedMW(w.mw)
		}
	}
	return levelMW(total)
}

func (a *appendTimeline) energyBetween(lo, hi int64) Joules {
	if hi <= lo {
		return 0
	}
	var level int64
	var cuts []edge
	for _, pts := range a.states {
		var prev int64
		for _, p := range pts {
			if p.at >= hi {
				break
			}
			v := fixedMW(p.mw)
			if p.at <= lo {
				level += v - prev
			} else {
				cuts = append(cuts, edge{p.at, v - prev})
			}
			prev = v
		}
	}
	for _, w := range a.windows {
		if w.end <= lo || w.start >= hi {
			continue
		}
		v := fixedMW(w.mw)
		if w.start <= lo {
			level += v
		} else {
			cuts = append(cuts, edge{w.start, v})
		}
		if w.end < hi {
			cuts = append(cuts, edge{w.end, -v})
		}
	}
	slices.SortFunc(cuts, func(a, b edge) int { return cmp.Compare(a.at, b.at) })
	var joules Joules
	from := lo
	for i := 0; i < len(cuts); {
		at := cuts[i].at
		if level != 0 {
			joules += joulesOver(levelMW(level), at-from)
		}
		for ; i < len(cuts) && cuts[i].at == at; i++ {
			level += cuts[i].delta
		}
		from = at
	}
	if level != 0 {
		joules += joulesOver(levelMW(level), hi-from)
	}
	return joules
}

func (a *appendTimeline) windowEnergy(label string) Joules {
	var joules Joules
	for _, w := range a.windows {
		if w.label == label {
			joules += joulesOver(w.mw, w.end-w.start)
		}
	}
	return joules
}

// edgesAfter returns the distinct window edge instants after at, in order.
func (a *appendTimeline) edgesAfter(at int64) []int64 {
	var out []int64
	for _, w := range a.windows {
		for _, e := range []int64{w.start, w.end} {
			if e > at {
				out = append(out, e)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

var logLabels = []string{"bt-inquiry", "wifi-get", "umts", "bt-gps-sample"}

// logOp is one generated step. A window step adds Repeat%16+1 windows,
// all starting now or staggered by half their length, so a sequence holds
// more pending edges than the heap's inline buffer and merges the edges
// that windows share.
type logOp struct {
	Kind   uint8  // %14: 0 step to a window edge, 1–2 advance, 3–4 state, 5–8 AddWindow, 9–11 AddWindowAt, 12–13 open or close an interval
	Step   uint16 // milliseconds
	Label  uint8
	Power  uint16 // tenths of a milliwatt; a multiple of 5 draws 0 mW
	Offset uint16 // AddWindowAt start after now, milliseconds
	Dur    uint16 // milliseconds (0 = an ignored window)
	Repeat uint8
}

// Property: over random histories of states, bursts of windows added now
// and later, clock steps (to window edges exactly, or by any number of
// milliseconds) and intervals opened and closed, the timeline gives the
// former append log's power, interval energies (open and closed), energy
// since creation and WindowEnergy bit for bit after every step, and keeps
// one pending edge per distinct future window edge instant and nothing
// more.
func TestWindowLogMatchesAppendOracle(t *testing.T) {
	most := 0 // the most pending edges any sequence held
	prop := func(ops []logOp) bool {
		clk := vclock.NewSimulator()
		tl, o := NewTimeline(clk), newAppendTimeline()
		created := clk.Now().UnixNano()
		var slots [4]struct {
			iv     Interval
			opened int64
			open   bool
			closed bool
			value  Joules
		}
		for i, op := range ops {
			now := clk.Now().UnixNano()
			label := logLabels[int(op.Label)%len(logLabels)]
			mw := Milliwatts(op.Power) / 10
			if op.Power%5 == 0 {
				mw = 0
			}
			d := time.Duration(op.Dur) * time.Millisecond
			switch k := op.Kind % 14; {
			case k == 0:
				if next := o.edgesAfter(now); len(next) > 0 {
					clk.AdvanceTo(time.Unix(0, next[min(int(op.Repeat)%4, len(next)-1)]))
				}
			case k < 3:
				clk.Advance(time.Duration(op.Step) * time.Millisecond)
			case k < 5:
				name := []string{"s0", "s1"}[op.Label%2]
				tl.SetState(name, mw)
				o.setState(now, name, mw)
			case k < 12:
				for r := 0; r <= int(op.Repeat%16); r++ {
					start := now
					if k < 9 {
						tl.AddWindow(label, mw, d)
					} else {
						start += int64(r)*int64(d)/2 + int64(op.Offset)*int64(time.Millisecond)
						tl.AddWindowAt(label, mw, time.Unix(0, start), d)
					}
					o.addWindowAt(label, mw, start, d)
				}
			default:
				s := &slots[op.Label%4]
				if s.open {
					s.value, s.open, s.closed = s.iv.Close(), false, true
					if want := o.energyBetween(s.opened, now); s.value != want {
						t.Logf("op %d: Close of an interval opened at %d = %v, oracle %v", i, s.opened, s.value, want)
						return false
					}
				} else {
					tl.Open(&s.iv)
					s.opened, s.open = now, true
				}
			}
			now = clk.Now().UnixNano()
			for j := range slots {
				s := &slots[j]
				switch {
				case s.open:
					if got, want := s.iv.Joules(), o.energyBetween(s.opened, now); got != want {
						t.Logf("op %d: interval opened at %d reads %v, oracle %v", i, s.opened, got, want)
						return false
					}
				case s.closed:
					if got := s.iv.Joules(); got != s.value {
						t.Logf("op %d: closed interval reads %v, closed at %v", i, got, s.value)
						return false
					}
				}
			}
			if got, want := tl.Joules(), o.energyBetween(created, now); got != want {
				t.Logf("op %d: Timeline.Joules = %v, oracle %v", i, got, want)
				return false
			}
			if got, want := tl.Power(), o.powerAt(now); got != want {
				t.Logf("op %d: Power = %v, oracle %v", i, got, want)
				return false
			}
			for _, label := range logLabels {
				if got, want := tl.WindowEnergy(label), o.windowEnergy(label); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
					t.Logf("op %d: WindowEnergy(%s) = %v, oracle %v", i, label, got, want)
					return false
				}
			}
			if got, want := len(tl.pending), len(o.edgesAfter(now)); got != want {
				t.Logf("op %d: %d pending edges, oracle %d distinct future edge instants", i, got, want)
				return false
			}
			most = max(most, len(tl.pending))
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
	// The sequences must grow the heap past its inline buffer, and re-grow
	// it once more.
	if inline := len(Timeline{}.buf); most <= 2*inline {
		t.Fatalf("at most %d pending edges: the sequences never grew the heap past %d", most, 2*inline)
	}
}
