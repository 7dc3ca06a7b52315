package query

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"contory/internal/cxt"
)

// SourceKind classifies the FROM clause, selecting the provisioning
// mechanism (or letting the middleware choose).
type SourceKind int

// Source kinds supported by the FROM clause.
const (
	// SourceAuto means FROM was omitted: the middleware autonomously and
	// dynamically selects the provisioning mechanism (maximum
	// transparency, §4.2).
	SourceAuto SourceKind = iota + 1
	// SourceIntSensor selects internal sensor-based provisioning.
	SourceIntSensor
	// SourceExtInfra selects external infrastructure-based provisioning.
	SourceExtInfra
	// SourceAdHoc selects distributed provisioning in ad hoc networks.
	SourceAdHoc
	// SourceEntity routes the query to a named entity (e.g. a friend's
	// device).
	SourceEntity
	// SourceRegion routes the query to the coordinates of a region to be
	// monitored (e.g. next exit on the highway).
	SourceRegion
)

// String implements fmt.Stringer using the QueryVocabulary spellings.
func (k SourceKind) String() string {
	switch k {
	case SourceAuto:
		return "auto"
	case SourceIntSensor:
		return "intSensor"
	case SourceExtInfra:
		return "extInfra"
	case SourceAdHoc:
		return "adHocNetwork"
	case SourceEntity:
		return "entity"
	case SourceRegion:
		return "region"
	default:
		return fmt.Sprintf("sourceKind(%d)", int(k))
	}
}

// AllNodes is the NumNodes value meaning "all nodes that can be discovered".
const AllNodes = 0

// Region is a circular geographic region (FROM region(x, y, radius)).
type Region struct {
	X, Y   float64
	Radius float64
}

// Source is the parsed FROM clause.
type Source struct {
	Kind SourceKind
	// NumNodes is the multiplicity for adHocNetwork sources: the first k
	// nodes, or AllNodes (spelled "all").
	NumNodes int
	// NumHops is the maximum distance for adHocNetwork sources (0 = 1 hop).
	NumHops int
	// Entity is the destination identifier for entity sources.
	Entity string
	// Region is the destination area for region sources.
	Region Region
	// Address optionally pins a concrete sensor or infrastructure address
	// (e.g. intSensor(bt-gps-1)).
	Address string
}

// String renders the FROM clause in canonical form.
func (s Source) String() string {
	switch s.Kind {
	case SourceAuto:
		return ""
	case SourceIntSensor, SourceExtInfra:
		if s.Address != "" {
			return fmt.Sprintf("%s(%s)", s.Kind, s.Address)
		}
		return s.Kind.String()
	case SourceAdHoc:
		nodes := "all"
		if s.NumNodes != AllNodes {
			nodes = strconv.Itoa(s.NumNodes)
		}
		hops := s.NumHops
		if hops <= 0 {
			hops = 1
		}
		return fmt.Sprintf("adHocNetwork(%s,%d)", nodes, hops)
	case SourceEntity:
		return fmt.Sprintf("entity(%s)", s.Entity)
	case SourceRegion:
		return fmt.Sprintf("region(%s,%s,%s)",
			trimFloat(s.Region.X), trimFloat(s.Region.Y), trimFloat(s.Region.Radius))
	default:
		return s.Kind.String()
	}
}

func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'f', -1, 64)
}

// Op is a comparison operator (the CxtRulesVocabulary operators plus the
// SQL-style spellings).
type Op int

// Comparison operators.
const (
	OpEq Op = iota + 1
	OpNe
	OpLt
	OpGt
	OpLe
	OpGe
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpGt:
		return ">"
	case OpLe:
		return "<="
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Apply evaluates "a o b" with a small tolerance for equality on floats.
func (o Op) Apply(a, b float64) bool {
	const eps = 1e-9
	switch o {
	case OpEq:
		return abs(a-b) <= eps
	case OpNe:
		return abs(a-b) > eps
	case OpLt:
		return a < b
	case OpGt:
		return a > b
	case OpLe:
		return a <= b+eps
	case OpGe:
		return a >= b-eps
	default:
		return false
	}
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// Agg is an aggregate function usable in EVENT predicates.
type Agg int

// Aggregates.
const (
	AggNone Agg = iota
	AggAvg
	AggMin
	AggMax
	AggSum
	AggCount
)

// String implements fmt.Stringer.
func (a Agg) String() string {
	switch a {
	case AggNone:
		return ""
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggSum:
		return "SUM"
	case AggCount:
		return "COUNT"
	default:
		return fmt.Sprintf("agg(%d)", int(a))
	}
}

// LogicOp combines predicate subtrees.
type LogicOp int

// Logical connectives.
const (
	LogicAnd LogicOp = iota + 1
	LogicOr
)

// String implements fmt.Stringer.
func (l LogicOp) String() string {
	if l == LogicOr {
		return "or"
	}
	return "and"
}

// Cond is a leaf comparison: [AGG(]attr[)] op value.
type Cond struct {
	Agg   Agg
	Attr  string
	Op    Op
	Value float64
}

// String renders the condition in canonical form.
func (c Cond) String() string {
	attr := c.Attr
	if c.Agg != AggNone {
		attr = fmt.Sprintf("%s(%s)", c.Agg, c.Attr)
	}
	return fmt.Sprintf("%s%s%s", attr, c.Op, trimFloat(c.Value))
}

// Predicate is a boolean expression tree: either a leaf condition or a
// binary combination.
type Predicate struct {
	Leaf        *Cond
	Logic       LogicOp
	Left, Right *Predicate
}

// NewCond returns a leaf predicate.
func NewCond(agg Agg, attr string, op Op, value float64) *Predicate {
	return &Predicate{Leaf: &Cond{Agg: agg, Attr: attr, Op: op, Value: value}}
}

// And combines two predicates conjunctively (nil operands pass through).
func And(a, b *Predicate) *Predicate {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &Predicate{Logic: LogicAnd, Left: a, Right: b}
}

// Or combines two predicates disjunctively (nil operands pass through).
func Or(a, b *Predicate) *Predicate {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &Predicate{Logic: LogicOr, Left: a, Right: b}
}

// String renders the predicate in canonical form with explicit parentheses
// around nested combinations.
func (p *Predicate) String() string {
	if p == nil {
		return ""
	}
	if p.Leaf != nil {
		return p.Leaf.String()
	}
	l, r := p.Left.String(), p.Right.String()
	if p.Left != nil && p.Left.Leaf == nil {
		l = "(" + l + ")"
	}
	if p.Right != nil && p.Right.Leaf == nil {
		r = "(" + r + ")"
	}
	return fmt.Sprintf("%s %s %s", l, p.Logic, r)
}

// Equal reports structural equality of predicates.
func (p *Predicate) Equal(other *Predicate) bool {
	if p == nil || other == nil {
		return p == other
	}
	if (p.Leaf == nil) != (other.Leaf == nil) {
		return false
	}
	if p.Leaf != nil {
		return *p.Leaf == *other.Leaf
	}
	return p.Logic == other.Logic && p.Left.Equal(other.Left) && p.Right.Equal(other.Right)
}

// Duration is the mandatory DURATION clause: a time span or a sample count.
type Duration struct {
	// Time is the query lifetime (e.g. 1 hour); zero if Samples is used.
	Time time.Duration
	// Samples is the number of samples to collect (e.g. 50 samples); zero
	// if Time is used.
	Samples int
}

// IsSamples reports whether the duration is expressed as a sample count.
func (d Duration) IsSamples() bool { return d.Samples > 0 }

// String renders the clause in canonical form.
func (d Duration) String() string {
	if d.IsSamples() {
		return fmt.Sprintf("%d samples", d.Samples)
	}
	return formatDur(d.Time)
}

// Mode describes how results flow back to the application.
type Mode int

// Interaction modes (§4.3: on-demand, periodic, event-based).
const (
	ModeOnDemand Mode = iota + 1
	ModePeriodic
	ModeEvent
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeOnDemand:
		return "on-demand"
	case ModePeriodic:
		return "periodic"
	case ModeEvent:
		return "event-based"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Query is a parsed context query.
//
// Ownership: the middleware copies a submitted query once, when the
// factory opens it and assigns its ID. From then on no code writes that
// copy or any query derived from it: Merge and MergeAll build new values,
// and the facade's tables and every provider share the copy read-only.
// Callers keep ownership of the query they submitted, and Provider.Query
// hands out a clone.
type Query struct {
	// ID uniquely identifies the query within a factory; assigned by the
	// middleware, not the parser.
	ID string
	// Select is the requested context type (mandatory).
	Select cxt.Type
	// From is the context source specification.
	From Source
	// Where filters results by item metadata.
	Where *Predicate
	// Freshness bounds the age of acceptable context data (0 = any).
	Freshness time.Duration
	// Duration is the query lifetime (mandatory).
	Duration Duration
	// Every is the periodic collection rate (mutually exclusive with
	// Event).
	Every time.Duration
	// Event is the event-based trigger predicate (mutually exclusive with
	// Every).
	Event *Predicate
}

// Mode returns the query's interaction mode.
func (q *Query) Mode() Mode {
	switch {
	case q.Event != nil:
		return ModeEvent
	case q.Every > 0:
		return ModePeriodic
	default:
		return ModeOnDemand
	}
}

// WireSize returns the serialized size of a query object in bytes (205 B in
// §6.1).
func (q *Query) WireSize() int { return 205 }

// String renders the query in canonical clause order; the output re-parses
// to an equivalent query.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	b.WriteString(string(q.Select))
	if q.From.Kind != SourceAuto && q.From.Kind != 0 {
		b.WriteString("\nFROM ")
		b.WriteString(q.From.String())
	}
	if q.Where != nil {
		b.WriteString("\nWHERE ")
		b.WriteString(q.Where.String())
	}
	if q.Freshness > 0 {
		b.WriteString("\nFRESHNESS ")
		b.WriteString(formatDur(q.Freshness))
	}
	b.WriteString("\nDURATION ")
	b.WriteString(q.Duration.String())
	if q.Every > 0 {
		b.WriteString("\nEVERY ")
		b.WriteString(formatDur(q.Every))
	} else if q.Event != nil {
		b.WriteString("\nEVENT ")
		b.WriteString(q.Event.String())
	}
	return b.String()
}

// Equal reports semantic equality, ignoring IDs.
func (q *Query) Equal(other *Query) bool {
	if q == nil || other == nil {
		return q == other
	}
	return q.Select == other.Select &&
		q.From == other.From &&
		q.Where.Equal(other.Where) &&
		q.Freshness == other.Freshness &&
		q.Duration == other.Duration &&
		q.Every == other.Every &&
		q.Event.Equal(other.Event)
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	if q == nil {
		return nil
	}
	cp := *q
	cp.Where = clonePred(q.Where)
	cp.Event = clonePred(q.Event)
	return &cp
}

func clonePred(p *Predicate) *Predicate {
	if p == nil {
		return nil
	}
	cp := &Predicate{Logic: p.Logic}
	if p.Leaf != nil {
		leaf := *p.Leaf
		cp.Leaf = &leaf
	}
	cp.Left = clonePred(p.Left)
	cp.Right = clonePred(p.Right)
	return cp
}

// formatDur renders durations using the paper's units (msec, sec, min,
// hour), picking the largest unit that divides evenly.
func formatDur(d time.Duration) string {
	switch {
	case d >= time.Hour && d%time.Hour == 0:
		return strconv.FormatInt(int64(d/time.Hour), 10) + " hour"
	case d >= time.Minute && d%time.Minute == 0:
		return strconv.FormatInt(int64(d/time.Minute), 10) + " min"
	case d >= time.Second && d%time.Second == 0:
		return strconv.FormatInt(int64(d/time.Second), 10) + " sec"
	default:
		return strconv.FormatInt(d.Milliseconds(), 10) + " msec"
	}
}
