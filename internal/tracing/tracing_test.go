package tracing

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"contory/internal/metrics"
	"contory/internal/vclock"
)

func newTestTracer(cfg Config) (*Tracer, *vclock.Simulator) {
	clk := vclock.NewSimulator()
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	return New(clk, cfg), clk
}

func TestIDDerivationDeterministic(t *testing.T) {
	a := traceIDFor(42, "p00001/q-1")
	b := traceIDFor(42, "p00001/q-1")
	if a != b {
		t.Fatalf("same (seed, name) gave different trace ids: %s vs %s", a, b)
	}
	if traceIDFor(42, "p00001/q-2") == a {
		t.Fatalf("different names collided on trace id %s", a)
	}
	if traceIDFor(43, "p00001/q-1") == a {
		t.Fatalf("different seeds collided on trace id %s", a)
	}
	s1 := spanIDFor(a, 0, 0)
	if s1 != spanIDFor(a, 0, 0) {
		t.Fatalf("span id derivation not deterministic")
	}
	if spanIDFor(a, 0, 1) == s1 || spanIDFor(a, s1, 0) == s1 {
		t.Fatalf("span id collisions across (parent, index)")
	}
}

func TestSpanTreeAndFirstItem(t *testing.T) {
	tr, clk := newTestTracer(Config{Seed: 7})
	root := tr.StartRoot("phone/q-1", "phone", nil)
	if root == nil {
		t.Fatal("StartRoot returned nil with sampling off")
	}
	clk.Advance(100 * time.Millisecond)
	child := root.Child("bt.inquiry")
	child.SetAttr("peers", "2")
	clk.Advance(13 * time.Second)
	child.End()
	remote := root.ChildAt("fuego.handle", "infra", nil)
	remote.End()
	clk.Advance(time.Second)
	root.MarkFirstItem()
	root.MarkFirstItem() // only the first call counts
	clk.Advance(time.Second)
	root.End()

	traces := tr.Store().Traces()
	if len(traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(traces))
	}
	tv := traces[0]
	if tv.Name != "phone/q-1" || tv.Node != "phone" {
		t.Fatalf("trace identity wrong: %+v", tv)
	}
	if got, want := tv.FirstItem, 14*time.Second+100*time.Millisecond; got != want {
		t.Fatalf("first item %v, want %v", got, want)
	}
	if got, want := tv.Dur, 15*time.Second+100*time.Millisecond; got != want {
		t.Fatalf("root duration %v, want %v", got, want)
	}
	if len(tv.Spans) != 3 {
		t.Fatalf("exported %d spans, want 3", len(tv.Spans))
	}
	// Spans sort by (start, id): root first, then the two children.
	if tv.Spans[0].Parent != 0 {
		t.Fatalf("first exported span is not the root: %+v", tv.Spans[0])
	}
	for _, sv := range tv.Spans[1:] {
		if sv.Parent != tv.Spans[0].ID {
			t.Fatalf("child %s not parented to root", sv.Name)
		}
	}
	if tv.Spans[2].Name != "fuego.handle" || tv.Spans[2].Node != "infra" {
		t.Fatalf("cross-node span wrong: %+v", tv.Spans[2])
	}
	if len(tv.Spans[1].Attrs) != 1 || tv.Spans[1].Attrs[0] != (Attr{Key: "peers", Value: "2"}) {
		t.Fatalf("attrs lost: %+v", tv.Spans[1].Attrs)
	}
	st := tr.Stats()
	if st.Started != 1 || st.Finished != 1 || st.SampledOut != 0 || st.DroppedTraces != 0 || st.DroppedSpans != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSamplingByResidue(t *testing.T) {
	tr, _ := newTestTracer(Config{Seed: 1, Sample: 4})
	kept := 0
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("p%05d/q-1", i)
		sp := tr.StartRoot(name, "phone", nil)
		keep := uint64(traceIDFor(1, name))%4 == 0
		if (sp != nil) != keep {
			t.Fatalf("trace %s: kept=%v, residue says %v", name, sp != nil, keep)
		}
		if sp != nil {
			kept++
			sp.End()
		}
	}
	st := tr.Stats()
	if st.Started != int64(kept) || st.SampledOut != int64(64-kept) {
		t.Fatalf("stats %+v with %d kept", st, kept)
	}
	if kept == 0 || kept == 64 {
		t.Fatalf("degenerate sampling: kept %d of 64", kept)
	}
}

func TestMaxSpansDropsAreCounted(t *testing.T) {
	tr, _ := newTestTracer(Config{Seed: 1})
	root := tr.StartRoot("phone/q-1", "phone", nil)
	var dropped int
	for i := 0; i < maxSpans+6; i++ {
		if c := root.Child("sensor.read"); c == nil {
			dropped++
		} else {
			c.End()
		}
	}
	root.End()
	if dropped != 7 { // root + maxSpans-1 children admitted
		t.Fatalf("dropped %d children, want 7", dropped)
	}
	if st := tr.Stats(); st.DroppedSpans != 7 {
		t.Fatalf("stats %+v, want 7 dropped spans", st)
	}
	tv := tr.Store().Traces()[0]
	if tv.DroppedSpans != 7 || len(tv.Spans) != maxSpans {
		t.Fatalf("view dropped=%d spans=%d", tv.DroppedSpans, len(tv.Spans))
	}
}

func TestStoreHeadTailRetention(t *testing.T) {
	tr, clk := newTestTracer(Config{Seed: 1})
	const n = headCap + tailCap + 5
	for i := 0; i < n; i++ {
		sp := tr.StartRoot(fmt.Sprintf("p%05d/q-1", i), "phone", nil)
		sp.End()
		clk.Advance(time.Second) // distinct start times in creation order
	}
	st := tr.Store()
	if st.Len() != headCap+tailCap {
		t.Fatalf("retained %d traces, want head %d + tail %d", st.Len(), headCap, tailCap)
	}
	if st.Finished() != n || st.DroppedTraces() != 5 {
		t.Fatalf("finished=%d dropped=%d", st.Finished(), st.DroppedTraces())
	}
	traces := st.Traces()
	var names, want []string
	for _, tv := range traces {
		names = append(names, tv.Name)
	}
	for i := 0; i < n; i++ {
		if i < headCap || i >= n-tailCap {
			want = append(want, fmt.Sprintf("p%05d/q-1", i))
		}
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("retained %v, want %v", names, want)
	}
	if !st.Earliest().Equal(traces[0].Start) {
		t.Fatalf("Earliest %v != first retained start %v", st.Earliest(), traces[0].Start)
	}
}

func TestFlushEndsOpenSpans(t *testing.T) {
	tr, clk := newTestTracer(Config{Seed: 1})
	root := tr.StartRoot("phone/q-1", "phone", nil)
	stream := root.Child("gps.stream")
	clk.Advance(30 * time.Second)
	if tr.Store().Len() != 0 {
		t.Fatal("trace finished before its root ended")
	}
	tr.Flush()
	traces := tr.Store().Traces()
	if len(traces) != 1 || !traces[0].Flushed {
		t.Fatalf("flush did not finish the live trace: %+v", traces)
	}
	for _, sv := range traces[0].Spans {
		if sv.Dur != 30*time.Second {
			t.Fatalf("span %s dur %v, want clipped to flush time", sv.Name, sv.Dur)
		}
	}
	// Ending after the flush must not double-finish.
	stream.End()
	root.End()
	if got := tr.Stats().Finished; got != 1 {
		t.Fatalf("finished %d traces, want 1", got)
	}
}

func TestFaultAnnotationScopedByNode(t *testing.T) {
	tr, _ := newTestTracer(Config{Seed: 1})
	tr.FaultActive("f-1", "provider-hang", []string{"peer"})
	root := tr.StartRoot("phone/q-1", "phone", nil)
	onPeer := root.ChildAt("sm.exec", "peer", nil)
	onPhone := root.Child("sensor.read")
	onPeer.End()
	onPhone.End()
	tr.FaultCleared("f-1")
	after := root.ChildAt("sm.exec", "peer", nil)
	after.End()
	root.End()

	tv := tr.Store().Traces()[0]
	var peerFault, phoneFault, afterFault bool
	for _, sv := range tv.Spans {
		for _, a := range sv.Attrs {
			if a.Key != "fault" {
				continue
			}
			switch {
			case sv.Name == "sm.exec" && sv.Start == 0 && a.Value == "f-1":
				peerFault = true
			case sv.Name == "sensor.read":
				phoneFault = true
			case sv.Name == "sm.exec" && sv.Start != 0:
				afterFault = true
			}
		}
	}
	if !peerFault {
		t.Fatal("span on faulted node missing fault attr")
	}
	if phoneFault {
		t.Fatal("span on unaffected node got the fault attr")
	}
	if afterFault {
		t.Fatal("span after FaultCleared still annotated")
	}
}

func TestChromeJSONSchemaAndDeterminism(t *testing.T) {
	build := func() []byte {
		tr, clk := newTestTracer(Config{Seed: 9})
		root := tr.StartRoot("phone/q-1", "phone", nil)
		root.SetAttr("mech", "extInfra")
		req := root.Child("umts.request")
		clk.Advance(200 * time.Millisecond)
		h := req.ChildAt("fuego.handle", "infra", nil)
		h.End()
		clk.Advance(300 * time.Millisecond)
		req.End()
		root.MarkFirstItem()
		root.End()
		data, err := ChromeJSON(tr.Store().Traces())
		if err != nil {
			t.Fatalf("ChromeJSON: %v", err)
		}
		return data
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatal("identical runs exported different Chrome JSON")
	}

	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  *float64          `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	var meta, complete int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			if ev.Args["name"] == "" {
				t.Fatalf("metadata event without a name: %+v", ev)
			}
		case "X":
			complete++
			if ev.Pid <= 0 || ev.Tid <= 0 || ev.Dur == nil || ev.Ts < 0 {
				t.Fatalf("malformed complete event: %+v", ev)
			}
			if ev.Args["span"] == "" || ev.Args["trace"] == "" {
				t.Fatalf("complete event missing span/trace ids: %+v", ev)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	// 2 nodes + 1 thread metadata, 3 spans.
	if meta != 3 || complete != 3 {
		t.Fatalf("meta=%d complete=%d events", meta, complete)
	}
}

func TestBuildAttributionClipsToFirstItem(t *testing.T) {
	tr, clk := newTestTracer(Config{Seed: 3})
	root := tr.StartRoot("phone/q-1", "phone", nil)
	root.SetAttr("mech", "btGPS")
	inq := root.Child("bt.inquiry")
	clk.Advance(13 * time.Second)
	inq.End()
	sdp := root.Child("bt.sdp")
	clk.Advance(1120 * time.Millisecond)
	sdp.End()
	root.MarkFirstItem()
	// Post-first-item work must be clipped out of the attribution.
	late := root.Child("bt.get")
	clk.Advance(10 * time.Second)
	late.End()
	root.End()

	rep := BuildAttribution(tr.Store().Traces(), tr.Stats(), 5)
	if rep.Retained != 1 || len(rep.Mechanisms) != 1 {
		t.Fatalf("report %+v", rep)
	}
	mb := rep.Mechanisms[0]
	if mb.Mechanism != "btGPS" || mb.Traces != 1 {
		t.Fatalf("mechanism row %+v", mb)
	}
	wantFirst := 14120.0
	if mb.MeanFirstItemMS != wantFirst {
		t.Fatalf("first item %v ms, want %v", mb.MeanFirstItemMS, wantFirst)
	}
	shares := make(map[string]float64)
	means := make(map[string]float64)
	for _, ps := range mb.Phases {
		shares[ps.Phase] = ps.Share
		means[ps.Phase] = ps.MeanMS
	}
	if means["inquiry"] != 13000 || means["service-discovery"] != 1120 {
		t.Fatalf("phase means %v", means)
	}
	if means["transfer"] != 0 && shares["transfer"] != 0 {
		t.Fatalf("post-first-item transfer not clipped: %v", means)
	}
	// The paper's BT decomposition: inquiry + SDP dominate first-item time.
	if shares["inquiry"]+shares["service-discovery"] < 0.9 {
		t.Fatalf("inquiry+sdp share %v < 0.9", shares["inquiry"]+shares["service-discovery"])
	}
	out := RenderAttribution(rep)
	if !strings.Contains(out, "btGPS") || !strings.Contains(out, "inquiry") {
		t.Fatalf("rendered report missing rows:\n%s", out)
	}
}

func TestRenderTextTree(t *testing.T) {
	tr, clk := newTestTracer(Config{Seed: 5})
	root := tr.StartRoot("phone/q-9", "phone", nil)
	c := root.Child("wifi.finder")
	hop := c.ChildAt("sm.hop", "peer", nil)
	clk.Advance(350 * time.Millisecond)
	hop.End()
	c.End()
	root.End()
	out := RenderText(tr.Store().Traces(), 0)
	for _, want := range []string{"phone/q-9", "wifi.finder", "sm.hop", "node=peer"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree missing %q:\n%s", want, out)
		}
	}
	// sm.hop must render nested under wifi.finder, not under the root.
	hopLine := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "sm.hop") {
			hopLine = line
		}
	}
	if !strings.Contains(hopLine, "│") && !strings.HasPrefix(hopLine, "   ") {
		t.Fatalf("sm.hop not nested: %q", hopLine)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.StartRoot("x", "n", nil)
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	sp.SetAttr("k", "v")
	sp.SetAttrInt("k", 1)
	sp.MarkFirstItem()
	sp.End()
	if c := sp.Child("y"); c != nil {
		t.Fatal("nil span spawned a child")
	}
	if c := sp.ChildAt("y", "n", nil); c != nil {
		t.Fatal("nil span spawned a remote child")
	}
	if ctx := sp.Context(); ctx != (SpanContext{}) {
		t.Fatalf("nil span context %+v", ctx)
	}
	tr.Flush()
	tr.FaultActive("f", "k", nil)
	tr.FaultCleared("f")
	if s := tr.Stats(); s != (Stats{}) {
		t.Fatalf("nil tracer stats %+v", s)
	}
	if tr.Store() != nil {
		t.Fatal("nil tracer returned a store")
	}
	var st *Store
	if st.Len() != 0 || st.Finished() != 0 || st.DroppedTraces() != 0 || st.Traces() != nil {
		t.Fatal("nil store not inert")
	}
}

// doomedRoot opens a root, then finishes headCap traces that start before
// it and tailCap that start after it, so the store can no longer retain
// the root's trace.
func doomedRoot(tr *Tracer, clk *vclock.Simulator) *Span {
	for i := 0; i < headCap; i++ {
		tr.StartRoot(fmt.Sprintf("early/q-%d", i), "phone", nil).End()
	}
	clk.Advance(time.Second)
	root := tr.StartRoot("phone/q-doomed", "phone", nil)
	clk.Advance(time.Second)
	for i := 0; i < tailCap; i++ {
		tr.StartRoot(fmt.Sprintf("late/q-%d", i), "phone", nil).End()
	}
	return root
}

// TestSpanAllocs: a recorded child with two attributes is one allocation,
// also while a chaos fault is active elsewhere; a fault on the child's own
// node fills its two inline attributes without another; and on a doomed
// trace the same calls allocate nothing.
func TestSpanAllocs(t *testing.T) {
	tr, clk := newTestTracer(Config{Seed: 1})
	child := func(root *Span) func() {
		return func() {
			c := root.Child("sensor.read")
			c.SetAttr("mech", "intSensor")
			c.SetAttrInt("items", 2)
			c.End()
		}
	}
	if got := testing.AllocsPerRun(100, child(tr.StartRoot("phone/q-1", "phone", nil))); got > 1 {
		t.Errorf("recorded child with two attributes: %v allocations, want at most 1", got)
	}
	tr.FaultActive("f-1", "provider-hang", []string{"peer"})
	if got := testing.AllocsPerRun(100, child(tr.StartRoot("phone/q-2", "phone", nil))); got > 1 {
		t.Errorf("recorded child, fault on another node: %v allocations, want at most 1", got)
	}
	tr.FaultActive("f-2", "gps-off", []string{"phone"})
	root := tr.StartRoot("phone/q-3", "phone", nil)
	if got := testing.AllocsPerRun(100, func() { root.Child("sensor.read").End() }); got > 1 {
		t.Errorf("recorded child, fault on its node: %v allocations, want at most 1", got)
	}
	tr.FaultCleared("f-1")
	tr.FaultCleared("f-2")

	doomed := doomedRoot(tr, clk)
	if got := testing.AllocsPerRun(100, child(doomed)); got != 0 {
		t.Errorf("doomed trace: %v allocations, want 0", got)
	}
	if st := tr.Stats(); st.DroppedSpans != 0 {
		t.Fatalf("stats %+v: no trace passed maxSpans", st)
	}
}

// TestDoomedTraceIsInert: a doomed trace's children are one non-nil inert
// span that records nothing, counts against maxSpans like a recorded
// child, and leaves the trace to be dropped when its root ends.
func TestDoomedTraceIsInert(t *testing.T) {
	tr, clk := newTestTracer(Config{Seed: 1})
	root := doomedRoot(tr, clk)
	a, b := root.Child("bt.inquiry"), root.ChildAt("sm.hop", "peer", nil)
	if a == nil || a != b || a.Child("bt.sdp") != a {
		t.Fatalf("doomed trace children %p, %p: want one shared non-nil span", a, b)
	}
	a.SetAttr("k", "v")
	a.End()
	dropped := 0
	for i := 0; i < maxSpans; i++ {
		if root.Child("sensor.read") == nil {
			dropped++
		}
	}
	// root + 3 children above, so maxSpans-4 more are admitted.
	if dropped != 4 {
		t.Fatalf("dropped %d children past maxSpans, want 4", dropped)
	}
	root.End()
	st := tr.Stats()
	if st.DroppedSpans != 4 || st.DroppedTraces != 1 || st.Finished != headCap+tailCap+1 {
		t.Fatalf("stats %+v", st)
	}
	for _, tv := range tr.Store().Traces() {
		if tv.Name == "phone/q-doomed" {
			t.Fatal("the doomed trace was retained")
		}
	}
}

func BenchmarkSpan(b *testing.B) {
	run := func(b *testing.B, root func() *Span) {
		sp := root()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%(maxSpans-1) == maxSpans-2 {
				b.StopTimer()
				sp = root()
				b.StartTimer()
			}
			c := sp.Child("sensor.read")
			c.SetAttr("mech", "intSensor")
			c.SetAttrInt("items", int64(i&63))
			c.End()
		}
	}
	b.Run("recorded", func(b *testing.B) {
		tr, _ := newTestTracer(Config{Seed: 1})
		n := 0
		run(b, func() *Span {
			n++
			return tr.StartRoot(fmt.Sprintf("phone/q-%d", n), "phone", nil)
		})
	})
	b.Run("doomed", func(b *testing.B) {
		tr, clk := newTestTracer(Config{Seed: 1})
		run(b, func() *Span { return doomedRoot(tr, clk) })
	})
}
