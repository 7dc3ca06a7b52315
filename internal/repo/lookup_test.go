package repo

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"contory/internal/cxt"
	"contory/internal/query"
	"contory/internal/vclock"
)

// servableLocked is the former per-item servability test: one TTL lookup
// per item.
func (r *Repository) servableLocked(it cxt.Item, now time.Time) bool {
	return servable(&it, now, r.ttlForLocked(it.Type))
}

// servableOracle is the former Repository.Servable, kept as the reference
// FirstServable is checked against: every item of the type the answer cache
// may serve at the query instant, newest first.
func (r *Repository) servableOracle(t cxt.Type, maxAge time.Duration) []cxt.Item {
	now := r.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []cxt.Item
	items := r.byType[t]
	for i := len(items) - 1; i >= 0; i-- {
		if !r.servableLocked(items[i], now) {
			continue
		}
		if !items[i].FreshEnough(now, maxAge) {
			continue
		}
		out = append(out, items[i])
	}
	return out
}

// firstServableOracle is the former cache lookup: Servable, then the first
// item match accepts.
func (r *Repository) firstServableOracle(t cxt.Type, maxAge time.Duration, match func(cxt.Item) bool) (cxt.Item, bool) {
	for _, it := range r.servableOracle(t, maxAge) {
		if match(it) {
			return it, true
		}
	}
	return cxt.Item{}, false
}

var lookupTypes = []cxt.Type{cxt.TypeTemperature, cxt.TypeWind, cxt.TypeHumidity}

// lookupWheres are WHERE clauses over the generated metadata ("" = none).
var lookupWheres = []string{
	"",
	"WHERE accuracy<=0.5",
	"WHERE trust>=2",
	"WHERE accuracy<=0.7 AND trust>=1",
	"WHERE accuracy>0.9 OR trust=3",
}

// lookupOp is one generated step: advance the clock, then store an item.
type lookupOp struct {
	Advance  uint8 // virtual seconds
	Type     uint8 // index into lookupTypes
	Lifetime uint8 // virtual seconds (0 = unbounded)
	Source   uint8 // cxt.SourceKind, 0 included
	Accuracy uint8 // tenths
	Trust    uint8 // cxt.Level
}

// lookupCfg is the generated repository and query set-up.
type lookupCfg struct {
	Cap        uint8
	DefaultTTL uint8    // virtual seconds (0 = none)
	TTLs       [3]uint8 // per-type SetTTL in seconds, for values below 64
	MaxAge     uint8    // FRESHNESS in seconds (0 = TTL only)
	From       uint8    // source kind the match requires (0 = any)
	Where      uint8    // index into lookupWheres
}

// Property: after every store, for every type, FirstServable returns
// exactly the item the former Servable-then-filter lookup returned. The
// match models the cache's FROM and WHERE tests: a required source kind
// and a metadata predicate.
func TestFirstServableMatchesOracle(t *testing.T) {
	prop := func(ops []lookupOp, cfg lookupCfg) bool {
		clk := vclock.NewSimulator()
		r := New(clk, int(cfg.Cap%DefaultLocalCap)+1)
		r.SetEvictionSeed(int64(cfg.Cap))
		r.SetDefaultTTL(time.Duration(cfg.DefaultTTL%40) * time.Second)
		for i, ttl := range cfg.TTLs {
			if ttl < 64 {
				r.SetTTL(lookupTypes[i], time.Duration(ttl%40)*time.Second)
			}
		}
		maxAge := time.Duration(cfg.MaxAge%30) * time.Second
		from := cxt.SourceKind(cfg.From % 4)
		where := query.MustParse("SELECT wind " + lookupWheres[int(cfg.Where)%len(lookupWheres)] + " DURATION 1 min").Where
		match := func(it cxt.Item) bool {
			return (from == 0 || it.Source.Kind == from) && query.EvalWhere(where, it.Meta)
		}
		for i, op := range ops {
			clk.Advance(time.Duration(op.Advance%8) * time.Second)
			r.Store(cxt.Item{
				Type:      lookupTypes[int(op.Type)%len(lookupTypes)],
				Value:     float64(i),
				Timestamp: clk.Now(),
				Lifetime:  time.Duration(op.Lifetime%50) * time.Second,
				Source:    cxt.Source{Kind: cxt.SourceKind(op.Source % 4), Address: "s"},
				Meta:      cxt.Metadata{Accuracy: float64(op.Accuracy%11) / 10, Trust: cxt.Level(op.Trust % 4)},
			})
			for _, typ := range lookupTypes {
				got, ok := r.FirstServable(typ, maxAge, match)
				want, wantOK := r.firstServableOracle(typ, maxAge, match)
				if ok != wantOK || !reflect.DeepEqual(got, want) {
					t.Logf("op %d type %s maxAge %v: got %+v,%v want %+v,%v", i, typ, maxAge, got, ok, want, wantOK)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
