package energy

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"contory/internal/vclock"
)

// appendTimeline is the timeline as it was before the segmented window
// log: the same records and integrator, with every window appended to one
// slice that re-grows by copying and that Compact filters in place. It is
// the oracle the segmented log must match bit for bit.
type appendTimeline struct {
	states    map[string][]changePoint
	windows   []window
	folded    []Joules // per label index: energy Compact dropped or trimmed
	labelIdx  map[string]int32
	compacted time.Time
	total     Joules // energy of history dropped by Compact
}

func newAppendTimeline() *appendTimeline {
	return &appendTimeline{states: make(map[string][]changePoint), labelIdx: make(map[string]int32)}
}

func (a *appendTimeline) setState(now time.Time, name string, mw Milliwatts) {
	at := unixNano(now)
	pts := a.states[name]
	if n := len(pts); n > 0 && pts[n-1].mw == mw {
		return
	}
	if n := len(pts); n > 0 && pts[n-1].at == at {
		pts[n-1].mw = mw
		return
	}
	a.states[name] = append(pts, changePoint{at: at, mw: mw})
}

func (a *appendTimeline) addWindowAt(label string, mw Milliwatts, start time.Time, d time.Duration) {
	if d <= 0 {
		return
	}
	i, ok := a.labelIdx[label]
	if !ok {
		i = int32(len(a.folded))
		a.folded = append(a.folded, 0)
		a.labelIdx[label] = i
	}
	s := unixNano(start)
	a.windows = append(a.windows, window{start: s, end: s + int64(d), mw: mw, label: i})
}

func (a *appendTimeline) powerAt(t time.Time) Milliwatts {
	at := unixNano(t)
	var total int64
	for _, pts := range a.states {
		total += fixedMW(stateAt(pts, at))
	}
	for _, w := range a.windows {
		if w.start <= at && at < w.end {
			total += fixedMW(w.mw)
		}
	}
	return levelMW(total)
}

func (a *appendTimeline) energyBetween(t0, t1 time.Time) Joules {
	if !t1.After(t0) {
		return 0
	}
	lo, hi := unixNano(t0), unixNano(t1)
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
	i, ok := a.labelIdx[label]
	if !ok {
		return 0
	}
	joules := a.folded[i]
	for _, w := range a.windows {
		if w.label == i {
			joules += joulesOver(w.mw, w.end-w.start)
		}
	}
	return joules
}

func (a *appendTimeline) compact(cutoff time.Time) {
	if !cutoff.After(a.compacted) {
		return
	}
	a.total += a.energyBetween(a.compacted, cutoff)
	c := unixNano(cutoff)
	for name, pts := range a.states {
		i := sort.Search(len(pts), func(i int) bool { return pts[i].at > c })
		if i == 0 {
			continue
		}
		n := copy(pts, pts[i-1:])
		pts[0].at = c
		a.states[name] = pts[:n]
	}
	kept := a.windows[:0]
	for _, w := range a.windows {
		if w.start < c {
			a.folded[w.label] += joulesOver(w.mw, min(w.end, c)-w.start)
			if w.end <= c {
				continue
			}
			w.start = c
		}
		kept = append(kept, w)
	}
	a.windows = kept
	a.compacted = cutoff
}

var logLabels = []string{"bt-inquiry", "wifi-get", "umts", "bt-gps-sample"}

// logOp is one generated step. A window step adds Repeat%16+1 windows, so
// a sequence fills several segments, 64-window ones included.
type logOp struct {
	Kind   uint8  // %14: 0–2 advance, 3–4 state, 5–8 AddWindow, 9–11 AddWindowAt, 12–13 Compact
	Step   uint16 // milliseconds: clock step, or how far before now a cutoff lies
	Label  uint8
	Power  uint16 // tenths of a milliwatt
	Offset int16  // AddWindowAt start relative to now, milliseconds
	Dur    uint16 // milliseconds (0 = an ignored window)
	Repeat uint8
}

// Property: over random histories of states, windows added now, in the
// past and in the future, clock steps and compactions, the segmented log
// gives the former append log's PowerAt, EnergyBetween,
// EnergyBetweenClamped, WindowEnergy, FoldedEnergy and WindowCount bit
// for bit after every step, at instants that include every window
// boundary and cutoff.
func TestWindowLogMatchesAppendOracle(t *testing.T) {
	most := 0 // the longest log any sequence built
	prop := func(ops []logOp) bool {
		clk := vclock.NewSimulator()
		tl, o := NewTimeline(clk), newAppendTimeline()
		instants := []time.Time{{}, clk.Now()}
		for i, op := range ops {
			now := clk.Now()
			label := logLabels[int(op.Label)%len(logLabels)]
			mw := Milliwatts(op.Power) / 10
			d := time.Duration(op.Dur) * time.Millisecond
			switch k := op.Kind % 14; {
			case k < 3:
				clk.Advance(time.Duration(op.Step) * time.Millisecond)
			case k < 5:
				name := logLabels[int(op.Label)%2]
				tl.SetState(name, mw)
				o.setState(now, name, mw)
			case k < 12:
				for r := 0; r <= int(op.Repeat%16); r++ {
					start := now.Add(time.Duration(r) * d / 2)
					if k < 9 {
						start = now
						tl.AddWindow(label, mw, d)
					} else {
						start = start.Add(time.Duration(op.Offset) * time.Millisecond)
						tl.AddWindowAt(label, mw, start, d)
					}
					o.addWindowAt(label, mw, start, d)
					instants = append(instants, start, start.Add(d))
				}
			default:
				cutoff := now.Add(-time.Duration(op.Step) * time.Millisecond)
				tl.Compact(cutoff)
				o.compact(cutoff)
				instants = append(instants, cutoff, cutoff.Add(-1), cutoff.Add(1))
			}
			end := clk.Now().Add(time.Hour)
			for k := 0; k < 6; k++ {
				t0 := instants[(i*7+k*13)%len(instants)]
				t1 := instants[(i*11+k*5+3)%len(instants)]
				if k == 0 {
					t0, t1 = o.compacted, end // the whole retained history
				}
				if got, want := tl.EnergyBetween(t0, t1), o.energyBetween(t0, t1); got != want {
					t.Logf("op %d: EnergyBetween(%v, %v) = %v, oracle %v", i, t0, t1, got, want)
					return false
				}
				clamped := t0
				if clamped.Before(o.compacted) {
					clamped = o.compacted
				}
				if got, want := tl.EnergyBetweenClamped(t0, t1), o.energyBetween(clamped, t1); got != want {
					t.Logf("op %d: EnergyBetweenClamped(%v, %v) = %v, oracle %v", i, t0, t1, got, want)
					return false
				}
				if got, want := tl.PowerAt(t1), o.powerAt(t1); got != want {
					t.Logf("op %d: PowerAt(%v) = %v, oracle %v", i, t1, got, want)
					return false
				}
			}
			for _, label := range logLabels {
				if got, want := tl.WindowEnergy(label), o.windowEnergy(label); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
					t.Logf("op %d: WindowEnergy(%s) = %v, oracle %v", i, label, got, want)
					return false
				}
			}
			most = max(most, len(o.windows))
			if tl.FoldedEnergy() != o.total || tl.WindowCount() != len(o.windows) {
				t.Logf("op %d: FoldedEnergy %v, oracle %v; WindowCount %d, oracle %d", i,
					tl.FoldedEnergy(), o.total, tl.WindowCount(), len(o.windows))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// Six segments hold 188 windows: the sequences must reach the 64-window
	// segments.
	if most < 188 {
		t.Fatalf("longest log %d windows: the sequences never filled a 64-window segment", most)
	}
}

// TestWindowLogSegments pins the segment sizes, and that a compacted log
// refills its segments from the front instead of allocating new ones.
func TestWindowLogSegments(t *testing.T) {
	var l windowLog
	for i := 0; i < 200; i++ {
		l.push(window{start: int64(i), end: int64(i) + 1})
	}
	var sizes []int
	for _, seg := range l.segs {
		sizes = append(sizes, cap(seg))
	}
	if want := []int{4, 8, 16, 32, 64, 64, 64}; !slices.Equal(sizes, want) {
		t.Fatalf("segment capacities %v, want %v", sizes, want)
	}
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	for i := 0; i < 200; i++ {
		tl.AddWindowAt("umts", 1, clk.Now().Add(time.Duration(i)*time.Second), time.Second)
	}
	tl.Compact(clk.Now().Add(150 * time.Second))
	if got := tl.WindowCount(); got != 50 {
		t.Fatalf("WindowCount after Compact = %d, want 50", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		tl.AddWindowAt("umts", 1, clk.Now(), time.Second)
	}); got != 0 {
		t.Fatalf("AddWindow into a compacted log: %v allocations, want 0", got)
	}
	if got := tl.WindowCount(); got != 151 {
		t.Fatalf("WindowCount = %d, want 151", got)
	}
}

// TestAddWindowAllocs: appending a window allocates only when it opens a
// new segment, once, and never copies the windows already held. (The
// directory of segment headers grows by append as well; its capacity
// reaches eight at the fifth segment.)
func TestAddWindowAllocs(t *testing.T) {
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	add := func() { tl.AddWindow("bt-gps-sample", 300, time.Second) }
	// The fifth window opens the 8-window second segment.
	for i := 0; i < 5; i++ {
		add()
	}
	// The warm-up and the measured run add windows 6–8 and 9–11, all
	// into the second segment.
	if got := testing.AllocsPerRun(1, func() { add(); add(); add() }); got != 0 {
		t.Errorf("AddWindow inside a segment: %v allocations, want 0", got)
	}
	// Fill the 16-, 32- and first 64-window segments: 124 windows in five.
	for tl.WindowCount() < 124 {
		add()
	}
	segment := func() {
		for i := 0; i < maxSegment; i++ {
			add()
		}
	}
	// Warm-up and two runs open the sixth to eighth segments.
	if got := testing.AllocsPerRun(2, segment); got != 1 {
		t.Errorf("AddWindow over a 64-window segment: %v allocations, want 1", got)
	}
}

// BenchmarkAddWindow appends GPS-sample windows the way a phone's radio
// path does, starting a fresh timeline every 1,024 windows so that the
// segment allocations of a growing log are included.
func BenchmarkAddWindow(b *testing.B) {
	clk := vclock.NewSimulator()
	var tl *Timeline
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			tl = NewTimeline(clk)
		}
		tl.AddWindow("bt-gps-sample", 300, time.Second)
	}
}
