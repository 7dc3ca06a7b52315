package query

import (
	"time"

	"contory/internal/cxt"
)

// EvalWhere evaluates a WHERE predicate against an item's metadata.
// Conditions over unknown attributes are false; aggregates are not
// meaningful in WHERE clauses and evaluate to false. A nil predicate
// accepts everything.
func EvalWhere(p *Predicate, meta cxt.Metadata) bool {
	if p == nil {
		return true
	}
	if p.Leaf != nil {
		if p.Leaf.Agg != AggNone {
			return false
		}
		v, ok := meta.Attr(p.Leaf.Attr)
		if !ok {
			return false
		}
		return p.Leaf.Op.Apply(v, p.Leaf.Value)
	}
	if p.Logic == LogicOr {
		return EvalWhere(p.Left, meta) || EvalWhere(p.Right, meta)
	}
	return EvalWhere(p.Left, meta) && EvalWhere(p.Right, meta)
}

// EventWindow is the sliding window of recent numeric observations an
// event-based provider keeps per context type to evaluate aggregate
// conditions (e.g. AVG(temperature)>25). The observations sit in a ring
// of size slots that the first Observe allocates: once the ring is full,
// each observation overwrites the oldest, so observing allocates nothing
// after the first call. Aggregates read the values oldest to newest.
type EventWindow struct {
	ring []float64 // grows to size; once full, ring[head] is the oldest
	size int32
	head int32
}

// NewEventWindow returns a window keeping the last size observations
// (minimum 1).
func NewEventWindow(size int) *EventWindow {
	if size < 1 {
		size = 1
	}
	return &EventWindow{size: int32(size)}
}

// Observe appends a value, evicting the oldest when full.
func (w *EventWindow) Observe(v float64) {
	if len(w.ring) < int(w.size) {
		if w.ring == nil {
			w.ring = make([]float64, 0, w.size)
		}
		w.ring = append(w.ring, v)
		return
	}
	w.ring[w.head] = v
	w.head++
	if w.head == w.size {
		w.head = 0
	}
}

// Len returns the number of buffered observations.
func (w *EventWindow) Len() int { return len(w.ring) }

// runs returns the buffered observations oldest first, as two runs: the
// older one is empty only when the window is.
func (w *EventWindow) runs() (older, newer []float64) {
	return w.ring[w.head:], w.ring[:w.head]
}

// Values returns a copy of the buffered observations, oldest first.
func (w *EventWindow) Values() []float64 {
	older, newer := w.runs()
	out := make([]float64, len(w.ring))
	copy(out[copy(out, older):], newer)
	return out
}

// aggregate computes the aggregate over the window; ok=false when the
// window is empty (except COUNT, which is always defined). Sums add the
// values oldest to newest, and MIN and MAX scan them in that order.
func (w *EventWindow) aggregate(a Agg) (float64, bool) {
	if a == AggCount {
		return float64(len(w.ring)), true
	}
	if len(w.ring) == 0 {
		return 0, false
	}
	older, newer := w.runs()
	switch a {
	case AggAvg, AggSum:
		var sum float64
		for _, run := range [2][]float64{older, newer} {
			for _, v := range run {
				sum += v
			}
		}
		if a == AggAvg {
			return sum / float64(len(w.ring)), true
		}
		return sum, true
	case AggMin:
		m := older[0]
		for _, run := range [2][]float64{older[1:], newer} {
			for _, v := range run {
				if v < m {
					m = v
				}
			}
		}
		return m, true
	case AggMax:
		m := older[0]
		for _, run := range [2][]float64{older[1:], newer} {
			for _, v := range run {
				if v > m {
					m = v
				}
			}
		}
		return m, true
	default: // AggNone: the latest observation
		if len(newer) > 0 {
			return newer[len(newer)-1], true
		}
		return older[len(older)-1], true
	}
}

// EvalEvent evaluates an EVENT predicate at the context provider's node.
// Plain conditions (temperature>25) use the most recent observation;
// aggregate conditions use the whole window. A nil predicate never fires.
func EvalEvent(p *Predicate, w *EventWindow) bool {
	if p == nil || w == nil {
		return false
	}
	if p.Leaf != nil {
		v, ok := w.aggregate(p.Leaf.Agg)
		if !ok {
			return false
		}
		return p.Leaf.Op.Apply(v, p.Leaf.Value)
	}
	if p.Logic == LogicOr {
		return EvalEvent(p.Left, w) || EvalEvent(p.Right, w)
	}
	return EvalEvent(p.Left, w) && EvalEvent(p.Right, w)
}

// Matches reports whether an item satisfies the query's WHERE and FRESHNESS
// clauses at the given time. This is also the post-extraction filter applied
// to merged-query results (§4.3).
func (q *Query) Matches(it cxt.Item, now time.Time) bool {
	if q.Select != "*" && it.Type != q.Select {
		return false
	}
	if !it.FreshEnough(now, q.Freshness) {
		return false
	}
	if it.Expired(now) {
		return false
	}
	return EvalWhere(q.Where, it.Meta)
}
