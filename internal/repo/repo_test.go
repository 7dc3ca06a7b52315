package repo

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"contory/internal/cxt"
	"contory/internal/vclock"
)

func item(t cxt.Type, v float64, ts time.Time) cxt.Item {
	return cxt.Item{Type: t, Value: v, Timestamp: ts}
}

func TestStoreAndLatest(t *testing.T) {
	clk := vclock.NewSimulator()
	r := New(clk, 0)
	if _, ok := r.Latest(cxt.TypeTemperature); ok {
		t.Fatal("Latest on empty repo reported ok")
	}
	r.Store(item(cxt.TypeTemperature, 14, clk.Now()))
	clk.Advance(time.Second)
	r.Store(item(cxt.TypeTemperature, 15, clk.Now()))
	got, ok := r.Latest(cxt.TypeTemperature)
	if !ok || got.Value != 15.0 {
		t.Fatalf("Latest = %+v, %v", got, ok)
	}
	if r.Len(cxt.TypeTemperature) != 2 || r.TotalStored() != 2 {
		t.Fatalf("Len/Total = %d/%d", r.Len(cxt.TypeTemperature), r.TotalStored())
	}
}

func TestRecentNewestFirst(t *testing.T) {
	clk := vclock.NewSimulator()
	r := New(clk, 0)
	for i := 0; i < 5; i++ {
		r.Store(item(cxt.TypeWind, float64(i), clk.Now()))
		clk.Advance(time.Second)
	}
	got := r.Recent(cxt.TypeWind, 3)
	if len(got) != 3 || got[0].Value != 4.0 || got[2].Value != 2.0 {
		t.Fatalf("Recent = %+v", got)
	}
	all := r.Recent(cxt.TypeWind, 0)
	if len(all) != 5 {
		t.Fatalf("Recent(0) = %d items", len(all))
	}
}

func TestCapacityEviction(t *testing.T) {
	clk := vclock.NewSimulator()
	r := New(clk, 3)
	r.SetEvictionSeed(42)
	for i := 0; i < 10; i++ {
		r.Store(item(cxt.TypeLight, float64(i), clk.Now()))
	}
	if r.Len(cxt.TypeLight) != 3 {
		t.Fatalf("Len = %d, want cap 3", r.Len(cxt.TypeLight))
	}
	got := r.Recent(cxt.TypeLight, 0)
	// The newest item is immune to eviction.
	if got[0].Value != 9.0 {
		t.Fatalf("newest item evicted: Recent = %+v", got)
	}
	if r.TotalStored() != 10 {
		t.Fatalf("TotalStored = %d", r.TotalStored())
	}
	if r.Evictions() != 7 {
		t.Fatalf("Evictions = %d, want 7", r.Evictions())
	}
}

// Eviction is a pure function of (seed, eviction count): two repositories
// with the same seed and the same store sequence keep identical contents,
// while a different seed may diverge — never wall time.
func TestEvictionSeedDeterminism(t *testing.T) {
	run := func(seed int64) []cxt.Item {
		clk := vclock.NewSimulator()
		r := New(clk, 4)
		r.SetEvictionSeed(seed)
		for i := 0; i < 50; i++ {
			r.Store(item(cxt.TypeNoise, float64(i), clk.Now()))
			clk.Advance(time.Second)
		}
		return r.Recent(cxt.TypeNoise, 0)
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("same seed, different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Value != b[i].Value {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i].Value, b[i].Value)
		}
	}
}

// Admission is lifetime-driven: an item already expired at store time is
// rejected, and the shortest bounded lifetime seen for a type caps its TTL.
func TestAdmissionAndTTLLearning(t *testing.T) {
	clk := vclock.NewSimulator()
	r := New(clk, 0)
	dead := item(cxt.TypeTemperature, 1, clk.Now().Add(-2*time.Second))
	dead.Lifetime = time.Second
	r.Store(dead)
	if r.Len(cxt.TypeTemperature) != 0 || r.TotalStored() != 0 {
		t.Fatal("expired item admitted")
	}
	it := item(cxt.TypeTemperature, 2, clk.Now())
	it.Lifetime = 10 * time.Second
	r.Store(it)
	if got := r.TTLFor(cxt.TypeTemperature); got != 10*time.Second {
		t.Fatalf("TTLFor = %v, want 10s", got)
	}
	it2 := item(cxt.TypeTemperature, 3, clk.Now())
	it2.Lifetime = 3 * time.Second
	r.Store(it2)
	if got := r.TTLFor(cxt.TypeTemperature); got != 3*time.Second {
		t.Fatalf("TTLFor after shorter lifetime = %v, want 3s", got)
	}
	// Longer lifetimes do not loosen a learned TTL.
	it3 := item(cxt.TypeTemperature, 4, clk.Now())
	it3.Lifetime = time.Minute
	r.Store(it3)
	if got := r.TTLFor(cxt.TypeTemperature); got != 3*time.Second {
		t.Fatalf("TTLFor loosened to %v", got)
	}
}

func matchAll(cxt.Item) bool { return true }

// FirstServable honours the per-type TTL: items older than the TTL are not
// offered to the answer cache even when their own lifetime is unbounded.
func TestServableHonoursTTL(t *testing.T) {
	clk := vclock.NewSimulator()
	r := New(clk, 0)
	r.SetTTL(cxt.TypeWind, 5*time.Second)
	r.Store(item(cxt.TypeWind, 1, clk.Now()))
	clk.Advance(2 * time.Second)
	r.Store(item(cxt.TypeWind, 2, clk.Now()))
	clk.Advance(4 * time.Second)
	got, ok := r.FirstServable(cxt.TypeWind, 0, matchAll)
	if !ok || got.Value != 2.0 {
		t.Fatalf("FirstServable = %+v, %v, want the 4s-old item", got, ok)
	}
	// The 6s-old item is past the TTL, so a match refusing the newest
	// finds nothing.
	if got, ok := r.FirstServable(cxt.TypeWind, 0, func(it cxt.Item) bool { return it.Value != 2.0 }); ok {
		t.Fatalf("FirstServable past the newest = %+v, want none", got)
	}
	// The FRESHNESS bound narrows further.
	if got, ok := r.FirstServable(cxt.TypeWind, 3*time.Second, matchAll); ok {
		t.Fatalf("FirstServable with 3s freshness = %+v, want none", got)
	}
	// TTL boundary is closed: exactly TTL-old is no longer servable.
	clk.Advance(time.Second)
	if got, ok := r.FirstServable(cxt.TypeWind, 0, matchAll); ok {
		t.Fatalf("FirstServable at exactly TTL = %+v, want none", got)
	}
}

// Regression for the closed expiry boundary: an item whose lifetime elapses
// exactly at the query instant must not be served by Latest, Fresh, or
// FirstServable.
func TestExpiryBoundaryTick(t *testing.T) {
	const life = 10 * time.Second
	cases := []struct {
		name    string
		advance time.Duration
		served  bool
	}{
		{"one tick before expiry", life - time.Millisecond, true},
		{"exactly at expiry", life, false},
		{"one tick after expiry", life + time.Millisecond, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := vclock.NewSimulator()
			r := New(clk, 0)
			it := item(cxt.TypeHumidity, 55, clk.Now())
			it.Lifetime = life
			r.Store(it)
			clk.Advance(tc.advance)
			if _, ok := r.Latest(cxt.TypeHumidity); ok != tc.served {
				t.Errorf("Latest served=%v, want %v", ok, tc.served)
			}
			if got := len(r.Fresh(cxt.TypeHumidity, time.Hour)) > 0; got != tc.served {
				t.Errorf("Fresh served=%v, want %v", got, tc.served)
			}
			if _, got := r.FirstServable(cxt.TypeHumidity, 0, matchAll); got != tc.served {
				t.Errorf("FirstServable served=%v, want %v", got, tc.served)
			}
		})
	}
}

func TestFreshFiltersAge(t *testing.T) {
	clk := vclock.NewSimulator()
	r := New(clk, 0)
	r.Store(item(cxt.TypeTemperature, 1, clk.Now()))
	clk.Advance(time.Minute)
	r.Store(item(cxt.TypeTemperature, 2, clk.Now()))
	clk.Advance(10 * time.Second)
	fresh := r.Fresh(cxt.TypeTemperature, 30*time.Second)
	if len(fresh) != 1 || fresh[0].Value != 2.0 {
		t.Fatalf("Fresh = %+v", fresh)
	}
	// Expired lifetimes are excluded too.
	it := item(cxt.TypeTemperature, 3, clk.Now())
	it.Lifetime = time.Second
	r.Store(it)
	clk.Advance(5 * time.Second)
	fresh = r.Fresh(cxt.TypeTemperature, time.Hour)
	for _, f := range fresh {
		if f.Value == 3.0 {
			t.Fatal("expired item returned by Fresh")
		}
	}
}

func TestTypesSorted(t *testing.T) {
	clk := vclock.NewSimulator()
	r := New(clk, 0)
	r.Store(item(cxt.TypeWind, 1, clk.Now()))
	r.Store(item(cxt.TypeLight, 1, clk.Now()))
	got := r.Types()
	if len(got) != 2 || got[0] != cxt.TypeLight || got[1] != cxt.TypeWind {
		t.Fatalf("Types = %v", got)
	}
}

type fakeRemote struct {
	items []cxt.Item
	err   error
}

func (f *fakeRemote) StoreRemote(it cxt.Item, done func(error)) {
	f.items = append(f.items, it)
	if done != nil {
		done(f.err)
	}
}

func TestStoreRemote(t *testing.T) {
	clk := vclock.NewSimulator()
	r := New(clk, 0)
	// Without a remote, StoreRemote still stores locally and reports false.
	if ok := r.StoreRemote(item(cxt.TypeWind, 1, clk.Now()), nil); ok {
		t.Fatal("StoreRemote without remote reported true")
	}
	if r.Len(cxt.TypeWind) != 1 {
		t.Fatal("item not stored locally")
	}
	remote := &fakeRemote{err: errors.New("umts down")}
	r.SetRemote(remote)
	var gotErr error
	if ok := r.StoreRemote(item(cxt.TypeWind, 2, clk.Now()), func(err error) { gotErr = err }); !ok {
		t.Fatal("StoreRemote with remote reported false")
	}
	if len(remote.items) != 1 || remote.items[0].Value != 2.0 {
		t.Fatalf("remote items = %+v", remote.items)
	}
	if gotErr == nil {
		t.Fatal("remote error not propagated")
	}
}

func TestMemoryBytesAndClear(t *testing.T) {
	clk := vclock.NewSimulator()
	r := New(clk, 0)
	r.Store(item(cxt.TypeWind, 1, clk.Now()))     // 53 B
	r.Store(item(cxt.TypeLocation, 1, clk.Now())) // 136 B
	if got := r.MemoryBytes(); got != 53+136 {
		t.Fatalf("MemoryBytes = %d, want %d", got, 53+136)
	}
	r.Clear()
	if r.MemoryBytes() != 0 || r.Len(cxt.TypeWind) != 0 {
		t.Fatal("Clear left items behind")
	}
}

// Property: the per-type length never exceeds capacity, and Latest is
// always the most recently stored item of that type.
func TestCapacityInvariantProperty(t *testing.T) {
	prop := func(vals []uint8, capRaw uint8) bool {
		clk := vclock.NewSimulator()
		capacity := int(capRaw%10) + 1
		r := New(clk, capacity)
		var last float64
		for _, v := range vals {
			last = float64(v)
			r.Store(item(cxt.TypeNoise, last, clk.Now()))
			clk.Advance(time.Second)
			if r.Len(cxt.TypeNoise) > capacity {
				return false
			}
		}
		if len(vals) == 0 {
			return true
		}
		got, ok := r.Latest(cxt.TypeNoise)
		return ok && got.Value == last
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
