package repo

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"contory/internal/cxt"
	"contory/internal/draw"
	"contory/internal/vclock"
)

// storeOracle is the former append-filter-evict store, kept as the
// reference Repository.Store is checked against: it appends first, then
// drops unservable items with one TTL lookup per item and evicts from the
// over-full slice, and MemoryBytes sums every item's wire size.
type storeOracle struct {
	clock      vclock.Clock
	cap        int
	byType     map[cxt.Type][]cxt.Item
	stored     int
	ttl        map[cxt.Type]time.Duration
	defaultTTL time.Duration
	evict      draw.Stream
	evictions  int
}

func newStoreOracle(clock vclock.Clock, cap int, seed int64, defaultTTL time.Duration) *storeOracle {
	return &storeOracle{
		clock:      clock,
		cap:        cap,
		byType:     make(map[cxt.Type][]cxt.Item),
		ttl:        make(map[cxt.Type]time.Duration),
		defaultTTL: defaultTTL,
		evict:      draw.New(uint64(seed)),
	}
}

func (o *storeOracle) ttlFor(t cxt.Type) time.Duration {
	if d, ok := o.ttl[t]; ok {
		return d
	}
	return o.defaultTTL
}

func (o *storeOracle) servable(it cxt.Item, now time.Time) bool {
	return servable(&it, now, o.ttlFor(it.Type))
}

func (o *storeOracle) Store(item cxt.Item) {
	now := o.clock.Now()
	if !o.servable(item, now) {
		return
	}
	if item.Lifetime > 0 {
		if cur, ok := o.ttl[item.Type]; !ok || item.Lifetime < cur {
			o.ttl[item.Type] = item.Lifetime
		}
	}
	items := append(o.byType[item.Type], item)
	if len(items) > o.cap {
		kept := items[:0]
		for _, it := range items {
			if o.servable(it, now) {
				kept = append(kept, it)
			}
		}
		items = kept
	}
	for len(items) > o.cap {
		half := len(items) / 2
		if half < 1 {
			half = 1
		}
		idx := o.evict.Intn(half)
		items = append(items[:idx], items[idx+1:]...)
		o.evictions++
	}
	o.byType[item.Type] = items
	o.stored++
}

func (o *storeOracle) MemoryBytes() int {
	total := 0
	for _, items := range o.byType {
		for _, it := range items {
			total += it.WireSize()
		}
	}
	return total
}

func (o *storeOracle) Clear() { o.byType = make(map[cxt.Type][]cxt.Item) }

// Recent is Repository.Recent(t, 0): every stored item, newest first.
func (o *storeOracle) Recent(t cxt.Type) []cxt.Item {
	items := o.byType[t]
	out := make([]cxt.Item, 0, len(items))
	for i := len(items) - 1; i >= 0; i-- {
		out = append(out, items[i])
	}
	return out
}

// storeTypes have wire sizes 53, 136 and 100 (uncalibrated).
var storeTypes = []cxt.Type{cxt.TypeWind, cxt.TypeLocation, cxt.TypeNoise}

// storeOp is one generated step: advance the clock, then clear the
// repository, pin a type's TTL, or store an item.
type storeOp struct {
	Advance  uint8 // virtual seconds
	Kind     uint8 // 0 = Clear, 1–2 = SetTTL, else Store
	Type     uint8 // index into storeTypes
	Lifetime uint8 // virtual seconds (0 = unbounded)
	Age      uint8 // seconds the item's timestamp lies before now
	TTL      uint8 // SetTTL's window in seconds (0 = unbounded)
}

// storeCfg is the generated repository set-up.
type storeCfg struct {
	Cap        uint8 // 1 to 17
	Seed       int64
	DefaultTTL uint8 // virtual seconds (0 = none)
}

// Property: over random sequences of stores (short and unbounded
// lifetimes, back-dated timestamps), SetTTL, clock steps and Clear, at
// caps 1 to 17, the in-place store keeps exactly what the former
// append-filter-evict store kept, draws the same evictions, and its
// running byte total equals both the former per-item sum and the sum of
// the wire sizes of what Recent returns.
func TestStoreMatchesOracle(t *testing.T) {
	prop := func(ops []storeOp, cfg storeCfg) bool {
		clk := vclock.NewSimulator()
		capacity := int(cfg.Cap%17) + 1
		defaultTTL := time.Duration(cfg.DefaultTTL%40) * time.Second
		r := New(clk, capacity)
		r.SetEvictionSeed(cfg.Seed)
		r.SetDefaultTTL(defaultTTL)
		o := newStoreOracle(clk, capacity, cfg.Seed, defaultTTL)
		for i, op := range ops {
			clk.Advance(time.Duration(op.Advance%6) * time.Second)
			typ := storeTypes[int(op.Type)%len(storeTypes)]
			switch op.Kind % 16 {
			case 0:
				r.Clear()
				o.Clear()
			case 1, 2:
				d := time.Duration(op.TTL%40) * time.Second
				r.SetTTL(typ, d)
				o.ttl[typ] = d
			default:
				it := cxt.Item{
					Type:      typ,
					Value:     float64(i),
					Timestamp: clk.Now().Add(-time.Duration(op.Age%5) * time.Second),
					Lifetime:  time.Duration(op.Lifetime%30) * time.Second,
				}
				r.Store(it)
				o.Store(it)
			}
			wire := 0
			for _, typ := range storeTypes {
				got, want := r.Recent(typ, 0), o.Recent(typ)
				if !reflect.DeepEqual(got, want) {
					t.Logf("op %d cap %d type %s: Recent %v, oracle %v", i, capacity, typ, got, want)
					return false
				}
				for _, it := range got {
					wire += it.WireSize()
				}
			}
			if r.Evictions() != o.evictions || r.TotalStored() != o.stored {
				t.Logf("op %d cap %d: evictions %d/%d, stored %d/%d", i, capacity,
					r.Evictions(), o.evictions, r.TotalStored(), o.stored)
				return false
			}
			if mem := r.MemoryBytes(); mem != o.MemoryBytes() || mem != wire {
				t.Logf("op %d cap %d: MemoryBytes %d, oracle %d, wire sum %d", i, capacity, mem, o.MemoryBytes(), wire)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// fullRepo returns a repository whose location type holds cap servable
// items, and a clock to stamp more.
func fullRepo(tb testing.TB) (*Repository, *vclock.Simulator) {
	tb.Helper()
	clk := vclock.NewSimulator()
	r := New(clk, DefaultLocalCap)
	r.SetEvictionSeed(42)
	for i := 0; i < DefaultLocalCap; i++ {
		r.Store(item(cxt.TypeLocation, float64(i), clk.Now()))
	}
	if r.Len(cxt.TypeLocation) != DefaultLocalCap {
		tb.Fatalf("Len = %d, want %d", r.Len(cxt.TypeLocation), DefaultLocalCap)
	}
	return r, clk
}

var benchBytes int

// TestStoreGrowth: a type's slice starts at a quarter of cap and doubles
// up to cap, and a full type never re-grows past it.
func TestStoreGrowth(t *testing.T) {
	clk := vclock.NewSimulator()
	r := New(clk, DefaultLocalCap)
	var caps []int
	for i := 0; i < 3*DefaultLocalCap; i++ {
		r.Store(item(cxt.TypeLocation, float64(i), clk.Now()))
		if c := cap(r.byType[cxt.TypeLocation]); len(caps) == 0 || caps[len(caps)-1] != c {
			caps = append(caps, c)
		}
	}
	if want := []int{DefaultLocalCap / 4, DefaultLocalCap / 2, DefaultLocalCap}; !reflect.DeepEqual(caps, want) {
		t.Fatalf("slice capacities %v, want %v", caps, want)
	}
}

// TestStoreAllocs: storing into a full type allocates nothing, whether
// room comes from the seeded eviction or from dropping expired items, and
// neither does the memory report the factory reads after every store.
// The item's value is boxed once, outside the measured calls.
func TestStoreAllocs(t *testing.T) {
	r, clk := fullRepo(t)
	it := item(cxt.TypeLocation, 1, clk.Now())
	if got := testing.AllocsPerRun(200, func() { r.Store(it) }); got != 0 {
		t.Errorf("Store on a full type (eviction): %v allocations, want 0", got)
	}
	// Once a second passes, every stored item is past the pinned TTL: the
	// next store on the full type drops them all instead of evicting.
	r.SetTTL(cxt.TypeLocation, time.Second)
	evictions := r.Evictions()
	if got := testing.AllocsPerRun(200, func() {
		clk.Advance(time.Second)
		it.Timestamp = clk.Now()
		r.Store(it)
	}); got != 0 {
		t.Errorf("Store on a full type (expiry filter): %v allocations, want 0", got)
	}
	if r.Evictions() != evictions {
		t.Errorf("expiry run evicted %d items, want none", r.Evictions()-evictions)
	}
	if got := testing.AllocsPerRun(200, func() { benchBytes = r.MemoryBytes() }); got != 0 {
		t.Errorf("MemoryBytes: %v allocations, want 0", got)
	}
}

// BenchmarkRepoStore stores into a full type: one seeded eviction and one
// append per store, and the memory report the factory reads after it.
func BenchmarkRepoStore(b *testing.B) {
	r, clk := fullRepo(b)
	it := item(cxt.TypeLocation, 1, clk.Now())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Store(it)
		benchBytes = r.MemoryBytes()
	}
}

// A full type's store skips the unservable walk only while no stored item
// can have become unservable. When the type's TTL shrinks, by SetTTL,
// SetDefaultTTL or a learned item lifetime, the very next store still
// drops the items that just became unservable, keeping what the former
// store keeps.
func TestStoreAfterTTLShrink(t *testing.T) {
	const longTTL, shrunk = time.Hour, 4 * time.Second
	shrinks := map[string]func(r *Repository, o *storeOracle, it cxt.Item) cxt.Item{
		"SetTTL": func(r *Repository, o *storeOracle, it cxt.Item) cxt.Item {
			r.SetTTL(cxt.TypeLocation, shrunk)
			o.ttl[cxt.TypeLocation] = shrunk
			return it
		},
		"SetDefaultTTL": func(r *Repository, o *storeOracle, it cxt.Item) cxt.Item {
			r.SetDefaultTTL(shrunk)
			o.defaultTTL = shrunk
			return it
		},
		"learned lifetime": func(_ *Repository, _ *storeOracle, it cxt.Item) cxt.Item {
			it.Lifetime = shrunk
			return it
		},
	}
	for name, shrink := range shrinks {
		t.Run(name, func(t *testing.T) {
			clk := vclock.NewSimulator()
			r := New(clk, DefaultLocalCap)
			r.SetEvictionSeed(7)
			r.SetDefaultTTL(longTTL)
			o := newStoreOracle(clk, DefaultLocalCap, 7, longTTL)
			store := func(it cxt.Item) {
				r.Store(it)
				o.Store(it)
			}
			// Fill the type one second apart, then store past full so the
			// walk bound is known and the next walk would be an hour away.
			for i := 0; i < DefaultLocalCap+3; i++ {
				store(item(cxt.TypeLocation, float64(i), clk.Now()))
				clk.Advance(time.Second)
			}
			evictions := r.Evictions()
			store(shrink(r, o, item(cxt.TypeLocation, -1, clk.Now())))
			// Items stamped 4 s or more before now are past the shrunk TTL:
			// only the three younger ones and the incoming item remain.
			if got := r.Len(cxt.TypeLocation); got != 4 {
				t.Fatalf("Len after the shrink = %d, want 4", got)
			}
			if r.Evictions() != evictions {
				t.Fatalf("the shrink's store evicted %d items, want none", r.Evictions()-evictions)
			}
			if got, want := r.Recent(cxt.TypeLocation, 0), o.Recent(cxt.TypeLocation); !reflect.DeepEqual(got, want) {
				t.Fatalf("Recent = %v, oracle %v", got, want)
			}
			if r.MemoryBytes() != o.MemoryBytes() {
				t.Fatalf("MemoryBytes = %d, oracle %d", r.MemoryBytes(), o.MemoryBytes())
			}
		})
	}
}
