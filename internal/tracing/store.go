package tracing

import (
	"sort"
	"sync"
	"time"

	"contory/internal/metrics"
)

// Store is the bounded finished-trace store. At fleet scale a run finishes
// far more traces than anyone can read, so the store keeps a deterministic
// head+tail-biased sample: the headCap earliest-started traces (the run's
// warm-up, where radios first power on) and the tailCap latest-started
// ones (steady state, chaos aftermath). The retained set is a pure
// function of the finished-trace set ordered by (start, trace id) — never
// of arrival order — so parallel runs at any worker count retain, and
// drop, exactly the same traces.
type Store struct {
	mu       sync.Mutex
	head     []*traceData // ascending by key; the headCap earliest
	tail     []*traceData // ascending by key; the tailCap latest
	finished int64
	dropped  int64
	mDropped *metrics.Counter
}

func newStore(reg *metrics.Registry) *Store {
	return &Store{mDropped: reg.Counter("tracing.traces.dropped")}
}

// keyLess orders traces by (root start, trace id) — both deterministic
// functions of the seed.
func keyLess(a, b *traceData) bool {
	if !a.start.Equal(b.start) {
		return a.start.Before(b.start)
	}
	return a.id < b.id
}

// add offers a finished trace to both retention windows. A trace evicted
// from (or never admitted to) both is dropped and counted; the count is
// the same at any worker count because the retained set is.
func (s *Store) add(td *traceData) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.finished++
	inHead := s.insertHead(td)
	inTail := s.insertTail(td)
	if !inHead && !inTail {
		s.dropped++
		s.mu.Unlock()
		s.mDropped.Inc()
		return
	}
	s.mu.Unlock()
}

// insertHead keeps the headCap smallest keys; returns whether td survived.
// Evicting the previous maximum may in turn drop it entirely if the tail
// window no longer holds it either.
func (s *Store) insertHead(td *traceData) bool {
	i := sort.Search(len(s.head), func(i int) bool { return keyLess(td, s.head[i]) })
	if i >= headCap {
		return false
	}
	s.head = append(s.head, nil)
	copy(s.head[i+1:], s.head[i:])
	s.head[i] = td
	if len(s.head) > headCap {
		evicted := s.head[len(s.head)-1]
		s.head = s.head[:len(s.head)-1]
		if !s.inTailLocked(evicted) {
			s.dropped++
			s.mDropped.Inc()
		}
	}
	return true
}

// insertTail keeps the tailCap largest keys.
func (s *Store) insertTail(td *traceData) bool {
	i := sort.Search(len(s.tail), func(i int) bool { return keyLess(td, s.tail[i]) })
	if len(s.tail) == tailCap && i == 0 {
		return false
	}
	s.tail = append(s.tail, nil)
	copy(s.tail[i+1:], s.tail[i:])
	s.tail[i] = td
	if len(s.tail) > tailCap {
		evicted := s.tail[0]
		s.tail = s.tail[1:]
		if !s.inHeadLocked(evicted) {
			s.dropped++
			s.mDropped.Inc()
		}
	}
	return true
}

func (s *Store) inHeadLocked(td *traceData) bool {
	for _, h := range s.head {
		if h == td {
			return true
		}
	}
	return false
}

func (s *Store) inTailLocked(td *traceData) bool {
	for _, t := range s.tail {
		if t == td {
			return true
		}
	}
	return false
}

// Len returns how many distinct traces are retained. Nil-safe.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.unionLocked())
}

// Finished returns how many traces were ever offered to the store.
func (s *Store) Finished() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.finished
}

// DroppedTraces returns how many finished traces the retention windows
// discarded — sampling and overflow are never silent.
func (s *Store) DroppedTraces() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// unionLocked merges head and tail (they overlap while the store is below
// capacity), deduplicated, ascending by key.
func (s *Store) unionLocked() []*traceData {
	out := make([]*traceData, 0, len(s.head)+len(s.tail))
	seen := make(map[TraceID]bool, len(s.head)+len(s.tail))
	for _, td := range s.head {
		if !seen[td.id] {
			seen[td.id] = true
			out = append(out, td)
		}
	}
	for _, td := range s.tail {
		if !seen[td.id] {
			seen[td.id] = true
			out = append(out, td)
		}
	}
	sort.Slice(out, func(i, j int) bool { return keyLess(out[i], out[j]) })
	return out
}

// Traces exports every retained trace, ascending by (start, id). Call
// after the run (and a Tracer.Flush) so span energy integration sees the
// complete power timelines. Nil-safe.
func (s *Store) Traces() []TraceView {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	tds := s.unionLocked()
	s.mu.Unlock()
	out := make([]TraceView, 0, len(tds))
	for _, td := range tds {
		out = append(out, td.view())
	}
	return out
}

// Earliest returns the start of the earliest retained trace (zero time if
// none) — the epoch exporters measure timestamps from.
func (s *Store) Earliest() time.Time {
	if s == nil {
		return time.Time{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.head) > 0 {
		return s.head[0].start
	}
	return time.Time{}
}
