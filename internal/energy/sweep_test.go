package energy

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"contory/internal/vclock"
)

// refTimeline is the power timeline as it was before the one-pass sweep:
// time.Time records and an integrator that re-evaluates the total power at
// every state change and window boundary inside the span. It is the oracle
// the sweep must match bit for bit.
type refTimeline struct {
	states    map[string][]refPoint
	windows   []refWindow
	compacted time.Time
	folded    Joules
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

func (r *refTimeline) energyBetweenClamped(t0, t1 time.Time) Joules {
	if t0.Before(r.compacted) {
		t0 = r.compacted
	}
	return r.energyBetween(t0, t1)
}

// windowEnergy is only right on a timeline never compacted.
func (r *refTimeline) windowEnergy(label string) Joules {
	var joules Joules
	for _, w := range r.windows {
		if w.label == label {
			joules += Joules(float64(w.mw) / 1000.0 * w.end.Sub(w.start).Seconds())
		}
	}
	return joules
}

func (r *refTimeline) compact(cutoff time.Time) {
	if !cutoff.After(r.compacted) {
		return
	}
	r.folded += r.energyBetween(r.compacted, cutoff)
	for name, pts := range r.states {
		i := sort.Search(len(pts), func(i int) bool { return pts[i].at.After(cutoff) })
		if i == 0 {
			continue
		}
		out := []refPoint{{at: cutoff, mw: pts[i-1].mw}}
		r.states[name] = append(out, pts[i:]...)
	}
	kept := r.windows[:0]
	for _, w := range r.windows {
		if !w.end.After(cutoff) {
			continue
		}
		if w.start.Before(cutoff) {
			w.start = cutoff
		}
		kept = append(kept, w)
	}
	r.windows = kept
	r.compacted = cutoff
}

// sweepScenario drives a Timeline and the reference through the same
// random history: same-instant state collapses (including back to the
// previous level), windows starting now, in the future and in the past,
// zero-power draws, and — when compact is set — compactions.
type sweepScenario struct {
	tl      *Timeline
	ref     *refTimeline
	full    *refTimeline // never compacted: the WindowEnergy oracle
	instant []time.Time  // every instant worth integrating from or to
}

var sweepPowers = []Milliwatts{0, BaseIdle, DisplayOn, BacklightOn, BTScan, ContoryOn, 1190, 300, 0.5}

func newSweepScenario(rng *rand.Rand, ops int, compact bool) *sweepScenario {
	clk := vclock.NewSimulator()
	sc := &sweepScenario{tl: NewTimeline(clk), ref: newRefTimeline(), full: newRefTimeline()}
	power := func() Milliwatts {
		if rng.Intn(3) == 0 {
			return Milliwatts(rng.Intn(2_000_000)) / 1000
		}
		return sweepPowers[rng.Intn(len(sweepPowers))]
	}
	labels := []string{"bt-inquiry", "wifi-get", "umts", "bt-gps-sample"}
	for i := 0; i < ops; i++ {
		now := clk.Now()
		sc.instant = append(sc.instant, now)
		switch k := rng.Intn(12); {
		case k < 3:
			if rng.Intn(3) > 0 {
				clk.Advance(time.Duration(rng.Int63n(int64(3 * time.Second))))
			}
		case k < 6:
			name := fmt.Sprintf("s%d", rng.Intn(3))
			mw := power()
			sc.tl.SetState(name, mw)
			sc.ref.setState(now, name, mw)
			sc.full.setState(now, name, mw)
		case k < 10:
			label, mw := labels[rng.Intn(len(labels))], power()
			start := now
			if k >= 8 {
				start = now.Add(time.Duration(rng.Int63n(int64(8*time.Second))) - 2*time.Second)
			}
			d := time.Duration(rng.Int63n(int64(5 * time.Second)))
			if k == 8 {
				sc.tl.AddWindowAt(label, mw, start, d)
			} else {
				sc.tl.AddWindow(label, mw, d)
				start = now
			}
			sc.ref.addWindowAt(label, mw, start, d)
			sc.full.addWindowAt(label, mw, start, d)
			sc.instant = append(sc.instant, start, start.Add(d))
		default:
			if compact {
				cutoff := now.Add(-time.Duration(rng.Int63n(int64(4 * time.Second))))
				sc.tl.Compact(cutoff)
				sc.ref.compact(cutoff)
				sc.instant = append(sc.instant, cutoff, cutoff.Add(-1), cutoff.Add(1))
			}
		}
	}
	end := clk.Now()
	sc.instant = append(sc.instant, time.Time{}, vclock.Epoch.Add(-time.Second), end, end.Add(10*time.Second))
	return sc
}

// TestEnergySweepMatchesReference compares the one-pass sweep with the
// reference integrator by == on float64 over random histories, with and
// without compaction, on every pair of interesting instants: before the
// first change, at and around window boundaries and compaction cutoffs,
// inverted and empty spans, and the zero Time.
func TestEnergySweepMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc := newSweepScenario(rng, 40, seed%2 == 0)
		for i := 0; i < 200; i++ {
			t0 := sc.instant[rng.Intn(len(sc.instant))]
			t1 := sc.instant[rng.Intn(len(sc.instant))]
			if got, want := sc.tl.EnergyBetween(t0, t1), sc.ref.energyBetween(t0, t1); got != want {
				t.Fatalf("seed %d: EnergyBetween(%v, %v) = %v, reference %v", seed, t0, t1, got, want)
			}
			if got, want := sc.tl.EnergyBetweenClamped(t0, t1), sc.ref.energyBetweenClamped(t0, t1); got != want {
				t.Fatalf("seed %d: EnergyBetweenClamped(%v, %v) = %v, reference %v", seed, t0, t1, got, want)
			}
			if got, want := sc.tl.PowerAt(t0), sc.ref.powerAt(t0); got != want {
				t.Fatalf("seed %d: PowerAt(%v) = %v, reference %v", seed, t0, got, want)
			}
		}
		if got, want := sc.tl.FoldedEnergy(), sc.ref.folded; got != want {
			t.Fatalf("seed %d: FoldedEnergy = %v, reference %v", seed, got, want)
		}
		if got, want := sc.tl.WindowCount(), len(sc.ref.windows); got != want {
			t.Fatalf("seed %d: WindowCount = %d, reference %d", seed, got, want)
		}
		for _, label := range []string{"bt-inquiry", "wifi-get", "umts", "bt-gps-sample", "none"} {
			got, want := float64(sc.tl.WindowEnergy(label)), float64(sc.full.windowEnergy(label))
			if sc.tl.CompactedAt().IsZero() && got != want {
				t.Fatalf("seed %d: uncompacted WindowEnergy(%s) = %v, reference %v", seed, label, got, want)
			}
			if !almostEqual(got, want, 1e-9*math.Max(1, want)) {
				t.Fatalf("seed %d: WindowEnergy(%s) = %v, want %v", seed, label, got, want)
			}
		}
	}
}

// sweepBench builds a timeline of n windows over a few states: a phone's
// history in an uncompacted fleet run.
func sweepBench(n int) (*Timeline, time.Time, time.Time) {
	rng := rand.New(rand.NewSource(int64(n)))
	clk := vclock.NewSimulator()
	tl := NewTimeline(clk)
	tl.SetState("base", BaseIdle)
	tl.SetState("bt", BTScan)
	for i := 0; i < n; i++ {
		if i%16 == 0 {
			tl.SetState("display", DisplayOn*Milliwatts(i/16%2))
		}
		tl.AddWindow("bt-inquiry", 300, time.Duration(rng.Int63n(int64(13*time.Second))+1))
		clk.Advance(time.Duration(rng.Int63n(int64(2 * time.Second))))
	}
	return tl, vclock.Epoch, clk.Now()
}

func BenchmarkEnergyBetween(b *testing.B) {
	for _, n := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("windows=%d", n), func(b *testing.B) {
			tl, t0, t1 := sweepBench(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchJoules = tl.EnergyBetween(t0, t1)
			}
		})
	}
}

var benchJoules Joules

// TestEnergyBetweenAllocs: once the scratch pool is warm, an integral
// allocates nothing, whether its edges fit the stack buffer or not. Under
// the race detector the pool drops a quarter of its puts, which costs two
// allocations each; over 100 runs that averages below one per run.
func TestEnergyBetweenAllocs(t *testing.T) {
	for _, n := range []int{16, 4096} {
		tl, t0, t1 := sweepBench(n)
		if got := testing.AllocsPerRun(100, func() { benchJoules = tl.EnergyBetween(t0, t1) }); got > 0 {
			t.Errorf("EnergyBetween over %d windows: %v allocations, want 0", n, got)
		}
	}
}
