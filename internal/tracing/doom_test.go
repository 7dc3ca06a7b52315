package tracing

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"contory/internal/metrics"
	"contory/internal/vclock"
)

// The reference tracer below records every span of every trace and, at
// export, keeps the headCap earliest and tailCap latest finished traces by
// (start, id) — the retention rule, with no dooming. TestDoomMatchesReference
// drives it and the real tracer with the same random programs and requires
// identical exports and stats.

type refSpan struct {
	trace      *refTrace
	id, parent SpanID
	name, node string
	start, end time.Time
	ended      bool
	attrs      []Attr
	kids       uint64
}

type refTrace struct {
	id        TraceID
	name      string
	node      string
	start     time.Time
	spans     []*refSpan
	dropped   int
	firstItem time.Duration
	hasFirst  bool
	flushed   bool
	finished  bool
}

type refTracer struct {
	seed         int64
	clock        *vclock.Simulator
	live         map[TraceID]*refTrace
	finished     []*refTrace
	faults       []activeFault
	started      int64
	droppedSpans int64
}

func refKeyLess(a, b *refTrace) bool {
	if !a.start.Equal(b.start) {
		return a.start.Before(b.start)
	}
	return a.id < b.id
}

func (rt *refTracer) startRoot(name, node string) *refSpan {
	id := traceIDFor(rt.seed, name)
	now := rt.clock.Now()
	td := &refTrace{id: id, name: name, node: node, start: now}
	sp := &refSpan{trace: td, id: spanIDFor(id, 0, 0), name: name, node: node, start: now}
	td.spans = []*refSpan{sp}
	rt.live[id] = td
	rt.started++
	rt.annotate(sp)
	return sp
}

func (rt *refTracer) child(s *refSpan, name, node string) *refSpan {
	td := s.trace
	idx := s.kids
	s.kids++
	if len(td.spans) >= maxSpans {
		td.dropped++
		rt.droppedSpans++
		return nil
	}
	c := &refSpan{trace: td, id: spanIDFor(td.id, s.id, idx), parent: s.id, name: name, node: node, start: rt.clock.Now()}
	td.spans = append(td.spans, c)
	rt.annotate(c)
	return c
}

func (rt *refTracer) annotate(sp *refSpan) {
	for _, f := range rt.faults {
		if !f.matches(sp.node) {
			continue
		}
		for _, a := range []Attr{{"fault", f.id}, {"fault_kind", f.kind}} {
			present := false
			for _, b := range sp.attrs {
				present = present || a == b
			}
			if !present {
				sp.attrs = append(sp.attrs, a)
			}
		}
	}
}

func (rt *refTracer) endAt(sp *refSpan, now time.Time) {
	if sp.ended {
		return
	}
	sp.ended, sp.end = true, now
	rt.annotate(sp)
	if sp.parent == 0 {
		rt.finish(sp.trace)
	}
}

func (rt *refTracer) finish(td *refTrace) {
	if _, ok := rt.live[td.id]; !ok {
		return
	}
	delete(rt.live, td.id)
	td.finished = true
	rt.finished = append(rt.finished, td)
}

func (rt *refTracer) flush() {
	var lives []*refTrace
	for _, td := range rt.live {
		lives = append(lives, td)
	}
	sort.Slice(lives, func(i, j int) bool { return lives[i].id < lives[j].id })
	now := rt.clock.Now()
	for _, td := range lives {
		td.flushed = true
		for _, sp := range append([]*refSpan(nil), td.spans...) {
			rt.endAt(sp, now)
		}
		rt.finish(td)
	}
}

// sortedFinished returns the finished traces ascending by key.
func (rt *refTracer) sortedFinished() []*refTrace {
	out := append([]*refTrace(nil), rt.finished...)
	sort.Slice(out, func(i, j int) bool { return refKeyLess(out[i], out[j]) })
	return out
}

// retained applies the retention rule to the finished set.
func (rt *refTracer) retained() []*refTrace {
	all := rt.sortedFinished()
	if len(all) <= headCap+tailCap {
		return all
	}
	return append(all[:headCap:headCap], all[len(all)-tailCap:]...)
}

// bounds returns the traces at the head's top and the tail's bottom once
// both windows are full (nil otherwise).
func (rt *refTracer) bounds() (headMax, tailMin *refTrace) {
	all := rt.sortedFinished()
	if len(all) < headCap || len(all) < tailCap {
		return nil, nil
	}
	return all[headCap-1], all[len(all)-tailCap]
}

func (rt *refTracer) views() []TraceView {
	var out []TraceView
	for _, td := range rt.retained() {
		tv := TraceView{
			ID: td.id, Name: td.name, Node: td.node, Start: td.start,
			FirstItem: td.firstItem, HasFirstItem: td.hasFirst,
			DroppedSpans: td.dropped, Flushed: td.flushed,
		}
		for _, sp := range td.spans {
			var end time.Time
			if sp.ended {
				end = sp.end
			}
			tv.Spans = append(tv.Spans, SpanView{
				ID: sp.id, Parent: sp.parent, Name: sp.name, Node: sp.node,
				Start: sp.start.Sub(td.start), Dur: end.Sub(sp.start),
				Attrs: append([]Attr(nil), sp.attrs...),
			})
		}
		sort.Slice(tv.Spans, func(i, j int) bool {
			a, b := tv.Spans[i], tv.Spans[j]
			if a.Start != b.Start {
				return a.Start < b.Start
			}
			return a.ID < b.ID
		})
		for _, sv := range tv.Spans {
			if sv.Parent == 0 {
				tv.Dur = sv.Dur
				break
			}
		}
		out = append(out, tv)
	}
	return out
}

func (rt *refTracer) stats() Stats {
	return Stats{
		Started:       rt.started,
		Finished:      int64(len(rt.finished)),
		DroppedTraces: int64(len(rt.finished) - len(rt.retained())),
		DroppedSpans:  rt.droppedSpans,
	}
}

// handle pairs a span of the real tracer with its reference twin.
type handle struct {
	real *Span
	ref  *refSpan
}

// doomProgram runs one random program against both tracers and returns a
// description of the first divergence, or "" when they agree. doomed
// reports whether the program reached a doomed trace's maxSpans cap.
func doomProgram(seed int64) (diff string, doomed bool) {
	r := rand.New(rand.NewSource(seed))
	clk := vclock.NewSimulator()
	tr := New(clk, Config{Seed: seed, Registry: metrics.NewRegistry()})
	ref := &refTracer{seed: seed, clock: clk, live: make(map[TraceID]*refTrace)}

	nodes := []string{"n0", "n1", "n2", "n3"}
	names := []string{"bt.inquiry", "bt.sdp", "sm.hop", "umts.request", "gps.stream"}
	var spans, roots []handle
	var big handle // a root started midway, open until the flush
	var diffs []string
	check := func(what string, h handle) bool {
		if (h.real == nil) != (h.ref == nil) {
			diffs = append(diffs, fmt.Sprintf("%s: real span nil=%v, reference nil=%v", what, h.real == nil, h.ref == nil))
			return false
		}
		return h.real != nil
	}
	startRoot := func(i int) handle {
		node := nodes[r.Intn(len(nodes))]
		name := fmt.Sprintf("%s/q-%d", node, i)
		h := handle{tr.StartRoot(name, node, nil), ref.startRoot(name, node)}
		if check("StartRoot", h) {
			spans = append(spans, h)
			roots = append(roots, h)
		}
		return h
	}
	addChild := func(p handle) {
		name, node := names[r.Intn(len(names))], nodes[r.Intn(len(nodes))]
		h := handle{p.real.ChildAt(name, node, nil), ref.child(p.ref, name, node)}
		if check("ChildAt", h) {
			spans = append(spans, h)
		}
	}
	setAttr := func(h handle) {
		if r.Intn(2) == 0 {
			v := strconv.Itoa(r.Intn(4))
			h.real.SetAttr("k", v)
			h.ref.attrs = append(h.ref.attrs, Attr{"k", v})
			return
		}
		v := r.Int63n(1<<40) - 1<<39
		h.real.SetAttrInt("n", v)
		h.ref.attrs = append(h.ref.attrs, Attr{"n", strconv.FormatInt(v, 10)})
	}
	end := func(h handle) {
		h.real.End()
		ref.endAt(h.ref, clk.Now())
	}
	randomOp := func() {
		switch k := r.Intn(20); {
		case k < 6:
			addChild(spans[r.Intn(len(spans))])
		case k < 10:
			setAttr(spans[r.Intn(len(spans))])
		case k < 13:
			if h := spans[r.Intn(len(spans))]; h != big {
				end(h)
			}
		case k < 15:
			if h := roots[r.Intn(len(roots))]; h != big {
				end(h)
			}
		case k < 17:
			clk.Advance(time.Duration(r.Intn(3)) * 7 * time.Millisecond)
		case k < 18:
			h := spans[r.Intn(len(spans))]
			h.real.MarkFirstItem()
			if td := h.ref.trace; !td.hasFirst {
				td.hasFirst, td.firstItem = true, clk.Now().Sub(td.start)
			}
		default:
			id := fmt.Sprintf("f-%d", r.Intn(3))
			if r.Intn(2) == 0 {
				var scope []string
				if r.Intn(2) == 0 {
					scope = []string{nodes[r.Intn(len(nodes))]}
				}
				tr.FaultActive(id, "hang", scope)
				f := activeFault{id: id, kind: "hang"}
				if len(scope) > 0 {
					f.nodes = map[string]bool{scope[0]: true}
				}
				ref.faults = append(ref.faults, f)
			} else {
				tr.FaultCleared(id)
				var kept []activeFault
				for _, f := range ref.faults {
					if f.id != id {
						kept = append(kept, f)
					}
				}
				ref.faults = kept
			}
		}
	}

	// Phase 1: more than headCap+tailCap roots, interleaved with children,
	// attributes, ends (early, late and repeated), clock steps (zero steps
	// make same-instant starts) and faults.
	nroots := headCap + tailCap + 60 + r.Intn(80)
	bigAt := headCap + 20 + r.Intn(20)
	for i := 0; i < nroots; i++ {
		h := startRoot(i)
		if i == bigAt {
			big = h
		}
		for n := r.Intn(8); n > 0; n-- {
			randomOp()
		}
	}
	// Phase 2: end every root but big and a few others, which the flush
	// finishes; then grow the traces at the store's bounds, which a
	// non-strict doom test would stop recording.
	for _, h := range roots {
		if h != big && r.Intn(len(roots)) >= 4 {
			end(h)
		}
	}
	if hm, tm := ref.bounds(); hm != nil {
		for _, h := range roots {
			if h.ref.trace == hm || h.ref.trace == tm {
				addChild(h)
				setAttr(h)
				end(spans[len(spans)-1])
			}
		}
	}
	// Phase 3: big is doomed by now; grow it past maxSpans through its
	// root and its children.
	for i := 0; i < maxSpans+8; i++ {
		p := big
		if len(spans) > 0 && r.Intn(3) == 0 && spans[len(spans)-1].ref != nil && spans[len(spans)-1].ref.trace == big.ref.trace {
			p = spans[len(spans)-1]
		}
		addChild(p)
		if i%5 == 0 {
			setAttr(p)
		}
	}
	big.real.trace.mu.Lock()
	doomed = big.real.trace.doomed && big.real.trace.dropped > 0
	big.real.trace.mu.Unlock()
	// Phase 4: late work on every kind of span, then the flush, then more
	// late ends and children (a child made after the flush stays open).
	for n := 200; n > 0; n-- {
		randomOp()
	}
	tr.Flush()
	ref.flush()
	for n := 60; n > 0; n-- {
		switch h := spans[r.Intn(len(spans))]; r.Intn(3) {
		case 0:
			end(h)
		case 1:
			addChild(h)
		default:
			setAttr(h)
		}
	}

	if len(diffs) > 0 {
		return diffs[0], doomed
	}
	got, want := tr.Store().Traces(), ref.views()
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
				return fmt.Sprintf("retained trace %d of %d/%d differs", i, len(got), len(want)), doomed
			}
		}
		return fmt.Sprintf("retained %d traces, reference %d", len(got), len(want)), doomed
	}
	gj, err := ChromeJSON(got)
	if err != nil {
		return err.Error(), doomed
	}
	wj, err := ChromeJSON(want)
	if err != nil {
		return err.Error(), doomed
	}
	if !bytes.Equal(gj, wj) {
		return "Chrome export differs from the reference's", doomed
	}
	if gs, ws := tr.Stats(), ref.stats(); gs != ws {
		return fmt.Sprintf("stats %+v, reference %+v", gs, ws), doomed
	}
	return "", doomed
}

// TestDoomMatchesReference: on random programs that overflow the store —
// children and attributes before and after their root ends, late and
// repeated ends, faults, a doomed trace past maxSpans, a flush — the
// tracer's export and stats equal those of a reference that records every
// span and applies the retention rule at the end.
func TestDoomMatchesReference(t *testing.T) {
	reached := 0
	prop := func(seed int64) bool {
		diff, doomed := doomProgram(seed)
		if doomed {
			reached++
		}
		if diff != "" {
			t.Logf("seed %d: %s", seed, diff)
			return false
		}
		return true
	}
	n := 16
	if testing.Short() {
		n = 4
	}
	cfg := &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
	if reached != n {
		t.Fatalf("%d of %d programs doomed their open trace past maxSpans", reached, n)
	}
}
