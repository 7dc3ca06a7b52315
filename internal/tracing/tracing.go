// Package tracing is Contory's deterministic distributed tracing layer:
// every context query started through the core factory opens a root span,
// and each layer the query crosses — facade assignment, provider reads, BT
// inquiry/service-discovery/RFCOMM segments, WiFi finder attempts, UMTS
// rounds, GPS streams, Smart Message migration hops — opens vclock-stamped
// child spans under it. The span tree turns every latency figure of the
// paper's Table 1 into an inspectable causal artifact: a one-hop Bluetooth
// query's ~14 s is visibly the ~13 s inquiry plus the ~1.12 s service
// discovery plus a ~32 ms transfer.
//
// Determinism contract: identically-seeded runs produce byte-identical
// trace exports at any worker count. Three rules make that hold:
//
//   - IDs are derived, not random: a TraceID hashes (seed, trace name) and
//     a SpanID hashes (trace, parent, child index), where the child index
//     is the parent's own creation counter. Spans of one trace are created
//     causally (a query's lifecycle is serial in virtual time), so the
//     counter sequence is execution-order independent.
//   - Timestamps are virtual-clock times, never wall clock.
//   - The bounded store retains a pure function of the finished-trace set
//     (head+tail selection by start time), not of arrival order.
//
// Every method is nil-safe on a nil *Tracer or nil *Span, so instrumented
// code never branches on "is tracing enabled"; a disabled tracer costs one
// nil check per call site.
package tracing

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"contory/internal/energy"
	"contory/internal/metrics"
	"contory/internal/vclock"
)

// TraceID identifies one query's trace, derived from (seed, trace name).
type TraceID uint64

// String renders the id as 16 hex digits, the form used in exports.
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// SpanID identifies one span within a trace.
type SpanID uint64

// String renders the id as 16 hex digits.
func (id SpanID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// SpanContext is the propagated identity of a span — what rides inside a
// Smart Message's data bricks so a trace follows code across nodes.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Attr is one span annotation.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// FNV-1a 64-bit, the same keyed hash the SM runtime uses for per-message
// determinism.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func hashUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// traceIDFor derives a trace id from the world seed and the trace name
// (e.g. "p00042/q-3"), which is unique per query fleet-wide.
func traceIDFor(seed int64, name string) TraceID {
	h := hashString(hashUint(fnvOffset, uint64(seed)), name)
	if h == 0 {
		h = fnvOffset
	}
	return TraceID(h)
}

// spanIDFor derives a span id from its trace, parent and the parent's
// child index. The root span uses parent 0, index 0.
func spanIDFor(trace TraceID, parent SpanID, index uint64) SpanID {
	h := hashUint(hashUint(hashUint(fnvOffset, uint64(trace)), uint64(parent)), index)
	if h == 0 {
		h = fnvPrime
	}
	return SpanID(h)
}

// Config parameterizes a Tracer.
type Config struct {
	// Seed keys trace-id derivation; use the world seed.
	Seed int64
	// Sample keeps one trace in Sample (by trace-id residue); <= 1 keeps
	// every trace. Sampling is decided at root-start, so sampled-out
	// queries pay no tracing cost at all.
	Sample int
	// Registry receives the tracer's own counters (traces started /
	// sampled out / dropped, spans dropped) so overflow is never silent.
	Registry *metrics.Registry
}

// Store and span caps.
const (
	// headCap and tailCap bound the finished-trace store: the headCap
	// earliest-started and tailCap latest-started traces are retained.
	headCap = 128
	tailCap = 128
	// maxSpans bounds spans per trace; excess children are dropped and
	// counted.
	maxSpans = 512
)

// activeFault is one chaos fault currently applied, as reported by the
// injector. Faults are applied and cleared at global scheduler barriers, so
// all lanes observe a consistent active set.
type activeFault struct {
	id    string
	kind  string
	nodes map[string]bool // affected node ids; empty or nil = world-wide
}

func (f activeFault) matches(node string) bool {
	if len(f.nodes) == 0 {
		return true
	}
	return f.nodes[node]
}

// Tracer creates and finishes traces for one world. Safe for concurrent
// use from all simulation lanes.
type Tracer struct {
	cfg   Config
	clock vclock.Clock
	store *Store

	mu   sync.Mutex
	live map[TraceID]*traceData
	// faults is replaced, never edited in place, so a reader may range
	// over the slice it loaded after releasing mu.
	faults []activeFault

	mStarted    *metrics.Counter
	mFinished   *metrics.Counter
	mSampledOut *metrics.Counter
	mSpansDrop  *metrics.Counter
}

// New returns a Tracer stamping spans from the given virtual clock.
func New(clock vclock.Clock, cfg Config) *Tracer {
	return &Tracer{
		cfg:         cfg,
		clock:       clock,
		store:       newStore(cfg.Registry),
		live:        make(map[TraceID]*traceData),
		mStarted:    cfg.Registry.Counter("tracing.traces.started"),
		mFinished:   cfg.Registry.Counter("tracing.traces.finished"),
		mSampledOut: cfg.Registry.Counter("tracing.traces.sampled_out"),
		mSpansDrop:  cfg.Registry.Counter("tracing.spans.dropped"),
	}
}

// Store returns the finished-trace store. Nil-safe.
func (tr *Tracer) Store() *Store {
	if tr == nil {
		return nil
	}
	return tr.store
}

// traceData is the mutable state of one in-flight or finished trace. Its
// mutex guards the trace's own fields and every field of its spans.
type traceData struct {
	tr    *Tracer
	id    TraceID
	name  string
	node  string
	start time.Time

	mu        sync.Mutex
	spans     []*Span // spans[0] is the root; recorded spans only
	nspans    int     // spans counted against maxSpans, recorded or not
	dropped   int     // children discarded over maxSpans
	firstItem time.Duration
	hasFirst  bool
	flushed   bool
	doomed    bool  // the store can no longer retain the trace (sticky)
	inert     *Span // the one span a doomed trace hands out; made lazily
}

// doomedLocked reports whether the store can no longer retain the trace,
// latching the answer once it is yes. Called with td.mu held.
func (td *traceData) doomedLocked() bool {
	if !td.doomed && td.tr.store.dooms(td) {
		td.doomed = true
	}
	return td.doomed
}

// StartRoot opens a trace's root span. The name must be unique per query
// (the factory uses "<owner>/<query id>"); node is the owning device and tl
// its power timeline (may be nil). Returns nil when tracing is off or the
// trace is sampled out.
func (tr *Tracer) StartRoot(name, node string, tl *energy.Timeline) *Span {
	if tr == nil {
		return nil
	}
	id := traceIDFor(tr.cfg.Seed, name)
	if tr.cfg.Sample > 1 && uint64(id)%uint64(tr.cfg.Sample) != 0 {
		tr.mSampledOut.Inc()
		return nil
	}
	now := tr.clock.Now()
	td := &traceData{tr: tr, id: id, name: name, node: node, start: now, nspans: 1}
	sp := &Span{
		trace: td,
		id:    spanIDFor(id, 0, 0),
		name:  name, node: node,
		start: now.UnixNano(),
	}
	if tl != nil {
		tl.Open(&sp.energy)
	}
	td.spans = []*Span{sp}
	tr.mu.Lock()
	tr.live[id] = td
	tr.mu.Unlock()
	tr.mStarted.Inc()
	tr.annotateFaults(sp)
	return sp
}

// finish moves a trace whose root span ended into the store.
func (tr *Tracer) finish(td *traceData) {
	tr.mu.Lock()
	if _, ok := tr.live[td.id]; !ok {
		tr.mu.Unlock()
		return
	}
	delete(tr.live, td.id)
	tr.mu.Unlock()
	tr.mFinished.Inc()
	tr.store.add(td)
}

// Flush force-finishes every live trace: open spans (periodic queries
// outliving the run, in-flight radio operations) are ended at the current
// virtual time and marked flushed. Call once after the run completes and
// before exporting.
func (tr *Tracer) Flush() {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	lives := make([]*traceData, 0, len(tr.live))
	for _, td := range tr.live {
		lives = append(lives, td)
	}
	tr.mu.Unlock()
	sort.Slice(lives, func(i, j int) bool { return lives[i].id < lives[j].id })
	now := tr.clock.Now()
	for _, td := range lives {
		td.mu.Lock()
		td.flushed = true
		spans := append([]*Span(nil), td.spans...)
		td.mu.Unlock()
		for _, sp := range spans {
			sp.endAt(now)
		}
		tr.finish(td)
	}
}

// FaultActive records a chaos fault as applied. Affected node ids scope
// the annotation; none means the fault is world-wide. Called by the chaos
// injector at apply time (a global scheduler barrier). Nil-safe.
func (tr *Tracer) FaultActive(id, kind string, nodes []string) {
	if tr == nil {
		return
	}
	f := activeFault{id: id, kind: kind}
	if len(nodes) > 0 {
		f.nodes = make(map[string]bool, len(nodes))
		for _, n := range nodes {
			if n != "" {
				f.nodes[n] = true
			}
		}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.faults = append(tr.faults[:len(tr.faults):len(tr.faults)], f)
}

// FaultCleared removes a fault from the active set. Nil-safe.
func (tr *Tracer) FaultCleared(id string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var kept []activeFault
	for _, f := range tr.faults {
		if f.id != id {
			kept = append(kept, f)
		}
	}
	tr.faults = kept
}

// annotateFaults stamps the span with every active fault touching its
// node. Used at span start and again at End (a fault injected mid-span is
// still attributed). It allocates nothing beyond the attributes it adds.
func (tr *Tracer) annotateFaults(sp *Span) {
	tr.mu.Lock()
	faults := tr.faults
	tr.mu.Unlock()
	if len(faults) == 0 {
		return
	}
	td := sp.trace
	td.mu.Lock()
	defer td.mu.Unlock()
	if td.doomedLocked() {
		return
	}
	for _, f := range faults {
		if f.matches(sp.node) {
			sp.addAttrOnceLocked("fault", f.id)
			sp.addAttrOnceLocked("fault_kind", f.kind)
		}
	}
}

// Stats summarize the tracer's volume and loss counters.
type Stats struct {
	Started       int64 `json:"started"`
	Finished      int64 `json:"finished"`
	SampledOut    int64 `json:"sampled_out"`
	DroppedTraces int64 `json:"dropped_traces"`
	DroppedSpans  int64 `json:"dropped_spans"`
}

// Stats returns current counters. Nil-safe.
func (tr *Tracer) Stats() Stats {
	if tr == nil {
		return Stats{}
	}
	return Stats{
		Started:       tr.mStarted.Value(),
		Finished:      tr.mFinished.Value(),
		SampledOut:    tr.mSampledOut.Value(),
		DroppedTraces: tr.store.DroppedTraces(),
		DroppedSpans:  tr.mSpansDrop.Value(),
	}
}

// Span is one timed segment of a trace. All methods are nil-safe. A span
// is one allocation: it reaches its tracer through its trace, shares the
// trace's mutex, keeps its instants as Unix nanoseconds of virtual time,
// the energy interval on its node's power timeline and its first two
// attributes inline.
//
// A doomed trace (one the store can no longer retain, see Store.dooms)
// records nothing more: its children are all one inert span whose methods
// record nothing, so callers cannot tell it from a recorded one.
type Span struct {
	trace *traceData

	id     SpanID
	parent SpanID
	name   string
	node   string
	start  int64 // Unix nanoseconds

	// Guarded by trace.mu; energy is also written by its timeline, under
	// the timeline's lock, while the span is open.
	end    int64           // Unix nanoseconds; meaningful once ended
	energy energy.Interval // the node's draw from start to end
	kids   uint32
	nattrs uint8
	ended  bool
	inert  bool
	attrs  [2]Attr // the first two attributes
	more   []Attr  // the rest, in order
}

// Context returns the span's propagable identity (zero for nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.trace.id, Span: s.id}
}

// Child opens a child span on the same node and timeline.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.ChildAt(name, s.node, s.energy.Timeline())
}

// ChildAt opens a child span on another node — the cross-node edge of the
// trace: SM migration hops, infrastructure-side handling. tl is that
// node's power timeline (may be nil). A child of a doomed trace still
// counts against maxSpans, so span-drop counts do not depend on dooming.
func (s *Span) ChildAt(name, node string, tl *energy.Timeline) *Span {
	if s == nil {
		return nil
	}
	td := s.trace
	now := td.tr.clock.Now()
	td.mu.Lock()
	idx := s.kids
	s.kids++
	if td.nspans >= maxSpans {
		td.dropped++
		td.mu.Unlock()
		td.tr.mSpansDrop.Inc()
		return nil
	}
	td.nspans++
	if s.inert || td.doomedLocked() {
		if td.inert == nil {
			td.inert = &Span{trace: td, inert: true}
		}
		inert := td.inert
		td.mu.Unlock()
		return inert
	}
	child := &Span{
		trace:  td,
		id:     spanIDFor(td.id, s.id, uint64(idx)),
		parent: s.id,
		name:   name, node: node,
		start: now.UnixNano(),
	}
	if tl != nil {
		tl.Open(&child.energy)
	}
	td.spans = append(td.spans, child)
	td.mu.Unlock()
	td.tr.annotateFaults(child)
	return child
}

// SetAttr annotates the span. Later values for the same key are kept as
// additional attributes (exports render them in order).
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.inert {
		return
	}
	td := s.trace
	td.mu.Lock()
	if !td.doomedLocked() {
		s.addAttrLocked(key, value)
	}
	td.mu.Unlock()
}

// SetAttrInt annotates the span with an integer value, rendered only when
// the trace still records.
func (s *Span) SetAttrInt(key string, value int64) {
	if s == nil || s.inert {
		return
	}
	td := s.trace
	td.mu.Lock()
	if !td.doomedLocked() {
		s.addAttrLocked(key, strconv.FormatInt(value, 10))
	}
	td.mu.Unlock()
}

// addAttrLocked appends one attribute: inline while there is room, then
// to the spill slice.
func (s *Span) addAttrLocked(key, value string) {
	a := Attr{Key: key, Value: value}
	if int(s.nattrs) < len(s.attrs) {
		s.attrs[s.nattrs] = a
		s.nattrs++
		return
	}
	s.more = append(s.more, a)
}

// addAttrOnceLocked adds the pair unless it is already present.
func (s *Span) addAttrOnceLocked(key, value string) {
	a := Attr{Key: key, Value: value}
	for _, b := range s.attrs[:s.nattrs] {
		if a == b {
			return
		}
	}
	for _, b := range s.more {
		if a == b {
			return
		}
	}
	s.addAttrLocked(key, value)
}

// attrsLocked copies the span's attributes in the order they were set (nil
// when there are none).
func (s *Span) attrsLocked() []Attr {
	n := int(s.nattrs) + len(s.more)
	if n == 0 {
		return nil
	}
	out := make([]Attr, 0, n)
	out = append(out, s.attrs[:s.nattrs]...)
	return append(out, s.more...)
}

// MarkFirstItem records the trace's first context-item delivery, the
// latency figure of Table 1. Only the first call counts.
func (s *Span) MarkFirstItem() {
	if s == nil || s.inert {
		return
	}
	td := s.trace
	now := td.tr.clock.Now()
	td.mu.Lock()
	if !td.hasFirst {
		td.hasFirst = true
		td.firstItem = now.Sub(td.start)
	}
	td.mu.Unlock()
}

// End closes the span at the current virtual time. Ending the root span
// finishes the trace and moves it to the store. Idempotent.
func (s *Span) End() {
	if s == nil || s.inert {
		return
	}
	s.endAt(s.trace.tr.clock.Now())
}

func (s *Span) endAt(now time.Time) {
	td := s.trace
	td.mu.Lock()
	if s.ended {
		td.mu.Unlock()
		return
	}
	s.ended = true
	s.end = now.UnixNano()
	s.energy.Close()
	td.mu.Unlock()
	// A fault injected while the span ran is attributed too.
	td.tr.annotateFaults(s)
	if s.parent == 0 {
		td.tr.finish(td)
	}
}

// SpanView is one exported span: immutable, ordered, with the energy its
// node drew over the span's interval.
type SpanView struct {
	ID      SpanID        `json:"id"`
	Parent  SpanID        `json:"parent,omitempty"`
	Name    string        `json:"name"`
	Node    string        `json:"node"`
	Start   time.Duration `json:"start"` // offset from the trace root start
	Dur     time.Duration `json:"dur"`
	Attrs   []Attr        `json:"attrs,omitempty"`
	EnergyJ float64       `json:"energy_j"`
}

// TraceView is one exported trace: the root plus all children sorted by
// (start, id), so the view is independent of span-creation interleaving.
type TraceView struct {
	ID           TraceID       `json:"id"`
	Name         string        `json:"name"`
	Node         string        `json:"node"`
	Start        time.Time     `json:"start"`
	Dur          time.Duration `json:"dur"`
	FirstItem    time.Duration `json:"first_item"`
	HasFirstItem bool          `json:"has_first_item"`
	DroppedSpans int           `json:"dropped_spans,omitempty"`
	Flushed      bool          `json:"flushed,omitempty"`
	Spans        []SpanView    `json:"spans"`
}

// view freezes a finished trace for export. A span's energy is read from
// the interval it opened on its node's power timeline when it started and
// closed when it ended. A reading at an instant depends only on power
// edges before it, so windows that peer lanes add at the span's end
// instant, in whatever order, leave the frozen figure unchanged.
func (td *traceData) view() TraceView {
	td.mu.Lock()
	defer td.mu.Unlock()
	tv := TraceView{
		ID: td.id, Name: td.name, Node: td.node, Start: td.start,
		FirstItem: td.firstItem, HasFirstItem: td.hasFirst,
		DroppedSpans: td.dropped, Flushed: td.flushed,
		Spans: make([]SpanView, 0, len(td.spans)),
	}
	for _, sp := range td.spans {
		start := time.Unix(0, sp.start)
		var end time.Time // an open span keeps the zero end it always had
		if sp.ended {
			end = time.Unix(0, sp.end)
		}
		sv := SpanView{
			ID: sp.id, Parent: sp.parent, Name: sp.name, Node: sp.node,
			Start: start.Sub(td.start),
			Dur:   end.Sub(start),
			Attrs: sp.attrsLocked(),
		}
		if sp.ended {
			sv.EnergyJ = float64(sp.energy.Joules())
		}
		tv.Spans = append(tv.Spans, sv)
	}
	sort.Slice(tv.Spans, func(i, j int) bool {
		a, b := tv.Spans[i], tv.Spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.ID < b.ID
	})
	if len(tv.Spans) > 0 {
		// Root duration (the root sorts first: it starts at offset 0 and
		// parents everything).
		for _, sv := range tv.Spans {
			if sv.Parent == 0 {
				tv.Dur = sv.Dur
				break
			}
		}
	}
	return tv
}
