// Package repo implements the CxtRepository of §4.3: gathered context
// information is stored locally or remotely. Only a few recent context data
// are stored locally (the paper's phones have 9 MB of RAM and the field
// trials showed memory exhaustion switching phones off); complete logs can
// be stored in remote repositories of context infrastructures.
//
// Since the shared provisioning plane the repository is also the
// middleware's answer cache: queries whose FRESHNESS clause is satisfiable
// by stored items are served from here with zero provider work. Per-type
// TTLs (driven by observed item lifetimes) bound how long an item stays
// servable, and the eviction policy is seeded and vclock-deterministic so
// same-seed fleet runs keep byte-identical cache contents at any worker
// count.
package repo

import (
	"sort"
	"sync"
	"time"

	"contory/internal/cxt"
	"contory/internal/draw"
	"contory/internal/vclock"
)

// Remote is the interface to a remote context repository (implemented by
// the infrastructure over UMTS). StoreRemote is asynchronous; failures are
// reported through the callback.
type Remote interface {
	StoreRemote(item cxt.Item, done func(error))
}

// Reader is the narrow read-only view of the repository promoted to the
// public API surface: applications inspect cached context without being
// able to mutate the store.
type Reader interface {
	// Latest returns the most recent non-expired item of the given type.
	Latest(t cxt.Type) (cxt.Item, bool)
	// Recent returns up to n most recent items of the given type, newest
	// first (n <= 0 returns all).
	Recent(t cxt.Type, n int) []cxt.Item
	// Fresh returns items of the given type no older than maxAge and not
	// expired, newest first.
	Fresh(t cxt.Type, maxAge time.Duration) []cxt.Item
	// Types returns the context types with stored items, sorted.
	Types() []cxt.Type
}

// DefaultLocalCap bounds how many items are kept locally per context type.
const DefaultLocalCap = 16

// Repository is the per-device context store.
type Repository struct {
	clock vclock.Clock

	mu     sync.Mutex
	cap    int
	byType map[cxt.Type][]cxt.Item // newest last, at most cap items each
	remote Remote
	stored int
	bytes  int // wire size of every stored item, kept by Store and Clear

	// Answer-cache state: per-type TTLs bound how long an item is servable
	// from the cache. observed lifetimes tighten the TTL (admission driven
	// by item lifetimes); the eviction stream is keyed by the device seed,
	// so its draws depend only on (seed, eviction count), never wall time —
	// cache contents are vclock-deterministic.
	ttl        map[cxt.Type]time.Duration
	defaultTTL time.Duration
	evict      draw.Stream
	evictions  int
	// due holds, for each type that has filled up, a lower bound on the
	// instant its first stored item stops being servable. Until then a
	// store on the full type skips the walk that drops unservable items:
	// it would drop none. A missing bound forces the next full store to
	// walk, which sets it. SetTTL, SetDefaultTTL, TTL learning and Clear
	// drop bounds; a bound that is too low only costs an early walk.
	due map[cxt.Type]time.Time
}

var _ Reader = (*Repository)(nil)

// New returns a Repository keeping at most cap recent items per type
// (0 = DefaultLocalCap).
func New(clock vclock.Clock, cap int) *Repository {
	if cap <= 0 {
		cap = DefaultLocalCap
	}
	return &Repository{
		clock:  clock,
		cap:    cap,
		byType: make(map[cxt.Type][]cxt.Item),
		ttl:    make(map[cxt.Type]time.Duration),
		due:    make(map[cxt.Type]time.Time),
	}
}

// SetRemote installs the remote repository used by StoreRemote.
func (r *Repository) SetRemote(remote Remote) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.remote = remote
}

// SetEvictionSeed re-seeds the deterministic eviction stream. The stream
// advances once per eviction, so eviction choices are a pure function of
// (seed, eviction count) — identical at any worker count or GOMAXPROCS.
func (r *Repository) SetEvictionSeed(seed int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evict = draw.New(uint64(seed))
}

// SetDefaultTTL sets the fallback servable window for types without an
// explicit or lifetime-derived TTL (0 disables TTL bounding for them).
func (r *Repository) SetDefaultTTL(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.defaultTTL = d
	clear(r.due)
}

// SetTTL pins the servable window for one context type.
func (r *Repository) SetTTL(t cxt.Type, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ttl[t] = d
	delete(r.due, t)
}

// TTLFor reports the effective servable window for a type: an explicit
// SetTTL wins, else the lifetime-derived TTL learned at admission, else the
// default (0 = unbounded).
func (r *Repository) TTLFor(t cxt.Type) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ttlForLocked(t)
}

func (r *Repository) ttlForLocked(t cxt.Type) time.Duration {
	if d, ok := r.ttl[t]; ok {
		return d
	}
	return r.defaultTTL
}

// servable reports whether an item whose type's TTL is ttl may still be
// served at now: not expired, and no older than the TTL (item lifetimes
// shorter than the TTL tighten the bound per item via Expired).
func servable(it *cxt.Item, now time.Time, ttl time.Duration) bool {
	if it.Expired(now) {
		return false
	}
	return ttl <= 0 || now.Sub(it.Timestamp) < ttl
}

// forever stands for "never unservable" in the walk bounds; any instant
// later than every real bound works, since a bound too low is harmless.
var forever = time.Date(9999, time.January, 1, 0, 0, 0, 0, time.UTC)

// unservableFrom is the instant from which servable reports false for it
// under ttl: the end of its lifetime or of its type's TTL, whichever comes
// first, or forever when neither bounds it.
func unservableFrom(it *cxt.Item, ttl time.Duration) time.Time {
	end := forever
	if it.Lifetime > 0 {
		end = it.Timestamp.Add(it.Lifetime)
	}
	if ttl > 0 {
		if t := it.Timestamp.Add(ttl); t.Before(end) {
			end = t
		}
	}
	return end
}

// Store keeps the item locally. Admission is driven by item lifetimes: an
// item that is already expired (or past its type's TTL) at store time is
// not admitted — it could never be served. Items whose lifetimes are
// shorter than the type's learned TTL tighten it, so short-lived types
// never serve past their producers' declared validity. When the per-type
// capacity would be exceeded, already-unservable items are dropped first;
// if the type is still full one item is evicted by the seeded
// deterministic policy (a draw over the older half of the stored items
// and the incoming one, never the incoming item itself). Room is made
// before the item is appended and in place, so a full type never re-grows
// its slice past cap and a store allocates nothing in steady state.
func (r *Repository) Store(item cxt.Item) {
	now := r.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, pinned := r.ttl[item.Type]
	ttl := r.defaultTTL
	if pinned {
		ttl = cur
	}
	if !servable(&item, now, ttl) {
		return
	}
	// Lifetime-driven TTL learning: the shortest bounded lifetime seen for
	// a type caps its TTL, so a type whose producers declare validity never
	// serves past it (learned lifetimes tighten any configured TTL). The
	// incoming item stays servable under the learned TTL: it is not
	// expired, so it is younger than its own lifetime.
	if item.Lifetime > 0 && (!pinned || item.Lifetime < cur) {
		r.ttl[item.Type] = item.Lifetime
		ttl = item.Lifetime
		delete(r.due, item.Type)
	}
	size := item.WireSize() // every item of a type has the type's size
	items := r.byType[item.Type]
	due, bounded := r.due[item.Type]
	if len(items) >= r.cap && (!bounded || !now.Before(due)) {
		// Drop unservable items first (expired or past TTL), and bound
		// when the first kept one stops being servable.
		due, bounded = forever, true
		kept := 0
		for i := range items {
			if !servable(&items[i], now, ttl) {
				continue
			}
			if u := unservableFrom(&items[i], ttl); u.Before(due) {
				due = u
			}
			if kept != i {
				items[kept] = items[i]
			}
			kept++
		}
		r.bytes -= (len(items) - kept) * size
		items = items[:kept]
	}
	// Only a type that has filled up carries a bound; it takes in the
	// incoming item.
	if bounded {
		if u := unservableFrom(&item, ttl); u.Before(due) {
			due = u
		}
		r.due[item.Type] = due
	}
	for len(items) >= r.cap {
		// Seeded eviction over the older half; the incoming item, the
		// newest, is immune.
		idx := r.evict.Intn((len(items) + 1) / 2)
		items = append(items[:idx], items[idx+1:]...)
		r.evictions++
		r.bytes -= size
	}
	if len(items) == cap(items) {
		// Start at a quarter of cap and double, never past cap: append
		// would start at one item, and a full type's last doubling would
		// overshoot cap.
		n := min(max(2*cap(items), r.cap/4, 1), r.cap)
		items = append(make([]cxt.Item, 0, n), items...)
	}
	r.byType[item.Type] = append(items, item)
	r.bytes += size
	r.stored++
}

// Evictions returns how many seeded evictions have run (for tests).
func (r *Repository) Evictions() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evictions
}

// StoreRemote forwards the item to the remote repository, if configured,
// and also keeps it locally. ok reports whether a remote was configured.
func (r *Repository) StoreRemote(item cxt.Item, done func(error)) (ok bool) {
	r.Store(item)
	r.mu.Lock()
	remote := r.remote
	r.mu.Unlock()
	if remote == nil {
		return false
	}
	remote.StoreRemote(item, done)
	return true
}

// Latest returns the most recent item of the given type that has not
// expired at the query instant. An item whose lifetime elapses exactly now
// is not served (closed expiry boundary).
func (r *Repository) Latest(t cxt.Type) (cxt.Item, bool) {
	now := r.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	items := r.byType[t]
	for i := len(items) - 1; i >= 0; i-- {
		if !items[i].Expired(now) {
			return items[i], true
		}
	}
	return cxt.Item{}, false
}

// Recent returns up to n most recent items of the given type, newest first
// (n <= 0 returns all).
func (r *Repository) Recent(t cxt.Type, n int) []cxt.Item {
	r.mu.Lock()
	defer r.mu.Unlock()
	items := r.byType[t]
	if n <= 0 || n > len(items) {
		n = len(items)
	}
	out := make([]cxt.Item, 0, n)
	for i := len(items) - 1; i >= len(items)-n; i-- {
		out = append(out, items[i])
	}
	return out
}

// Fresh returns items of the given type no older than maxAge, newest first.
// Items at exactly maxAge old are still fresh (FRESHNESS is an inclusive
// bound); items whose lifetime elapses exactly now are expired and
// excluded.
func (r *Repository) Fresh(t cxt.Type, maxAge time.Duration) []cxt.Item {
	now := r.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []cxt.Item
	items := r.byType[t]
	for i := len(items) - 1; i >= 0; i-- {
		if items[i].FreshEnough(now, maxAge) && !items[i].Expired(now) {
			out = append(out, items[i])
		}
	}
	return out
}

// FirstServable returns the newest item of the given type that the answer
// cache may serve at the query instant — not expired, within the type's
// TTL, and within maxAge (0 = TTL only) — and that match accepts. match
// runs under the repository lock, so it must not call back into the
// repository.
func (r *Repository) FirstServable(t cxt.Type, maxAge time.Duration, match func(cxt.Item) bool) (cxt.Item, bool) {
	now := r.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	items := r.byType[t]
	ttl := r.ttlForLocked(t)
	for i := len(items) - 1; i >= 0; i-- {
		it := &items[i]
		if servable(it, now, ttl) && it.FreshEnough(now, maxAge) && match(*it) {
			return *it, true
		}
	}
	return cxt.Item{}, false
}

// Types returns the context types with stored items, sorted.
func (r *Repository) Types() []cxt.Type {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]cxt.Type, 0, len(r.byType))
	for t, items := range r.byType {
		if len(items) > 0 {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of locally stored items of the given type.
func (r *Repository) Len(t cxt.Type) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byType[t])
}

// TotalStored returns the cumulative number of admitted Store calls
// (eviction does not decrement it; rejected-at-admission items never
// count).
func (r *Repository) TotalStored() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stored
}

// MemoryBytes estimates the current local memory footprint using item wire
// sizes, for the ResourcesMonitor. It reads the running total Store and
// Clear keep, so it is O(1) and may run after every store.
func (r *Repository) MemoryBytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes
}

// Clear drops all locally stored items (the reduceMemory action).
func (r *Repository) Clear() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byType = make(map[cxt.Type][]cxt.Item)
	r.bytes = 0
	clear(r.due)
}
