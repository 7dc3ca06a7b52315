package metrics

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestRingDroppedAccounting pins the ring's overflow accounting: Total
// counts every Record, Dropped counts exactly the evictions, and the two
// reconcile with the retained length in every fill regime.
func TestRingDroppedAccounting(t *testing.T) {
	record := func(r *Ring, n int) {
		for i := 0; i < n; i++ {
			r.Record(Event{Query: fmt.Sprintf("q%d", i), Kind: EventSubmitted})
		}
	}
	cases := []struct {
		name        string
		capacity    int
		records     int
		wantDropped uint64
	}{
		{name: "under capacity", capacity: 8, records: 5, wantDropped: 0},
		{name: "exact capacity", capacity: 8, records: 8, wantDropped: 0},
		{name: "wrap by one", capacity: 8, records: 9, wantDropped: 1},
		{name: "wrap many times", capacity: 4, records: 19, wantDropped: 15},
		{name: "minimum capacity wraps", capacity: 1, records: 3, wantDropped: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRing(tc.capacity)
			record(r, tc.records)
			if got := r.Dropped(); got != tc.wantDropped {
				t.Fatalf("Dropped() = %d, want %d", got, tc.wantDropped)
			}
			if got := r.Total(); got != uint64(tc.records) {
				t.Fatalf("Total() = %d, want %d", got, tc.records)
			}
			wantLen := tc.records
			if wantLen > tc.capacity {
				wantLen = tc.capacity
			}
			if got := r.Len(); got != wantLen {
				t.Fatalf("Len() = %d, want %d", got, wantLen)
			}
			// Retained + dropped must account for every record.
			if uint64(r.Len())+r.Dropped() != r.Total() {
				t.Fatalf("len %d + dropped %d != total %d", r.Len(), r.Dropped(), r.Total())
			}
			// The survivors are the newest records, oldest first.
			evs := r.Events()
			for i, ev := range evs {
				want := fmt.Sprintf("q%d", tc.records-len(evs)+i)
				if ev.Query != want {
					t.Fatalf("event %d = %q, want %q", i, ev.Query, want)
				}
			}
		})
	}

	t.Run("concurrent record", func(t *testing.T) {
		const (
			capacity   = 16
			goroutines = 8
			perG       = 500
		)
		r := NewRing(capacity)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					r.Record(Event{Query: fmt.Sprintf("g%d-%d", g, i), Kind: EventSubmitted})
				}
			}(g)
		}
		wg.Wait()
		if got := r.Total(); got != goroutines*perG {
			t.Fatalf("Total() = %d, want %d", got, goroutines*perG)
		}
		if got := r.Dropped(); got != goroutines*perG-capacity {
			t.Fatalf("Dropped() = %d, want %d", got, goroutines*perG-capacity)
		}
		if got := r.Len(); got != capacity {
			t.Fatalf("Len() = %d, want %d", got, capacity)
		}
	})

	// The registry snapshot must expose the same accounting.
	t.Run("snapshot exposure", func(t *testing.T) {
		reg := NewRegistry()
		cap := reg.Events().Capacity()
		for i := 0; i < cap+7; i++ {
			reg.Record(Event{Query: fmt.Sprintf("q%d", i), Kind: EventSubmitted})
		}
		s := reg.Snapshot()
		if s.EventsDropped != 7 || s.EventsTotal != uint64(cap+7) || s.EventsCap != cap {
			t.Fatalf("snapshot accounting = dropped %d total %d cap %d, want 7 %d %d",
				s.EventsDropped, s.EventsTotal, s.EventsCap, cap+7, cap)
		}
	})
}

// labelEvents is a mixed stream: query events from two owners, owner-less
// events (a fault and an SLO alert, as chaos and timeline record them),
// and a query event without an owner (a solo factory's). The assignments
// and expiries carry detail arguments as the factory records them: a QoS
// deferral's wait (zero included), a degradation's reason, a degradation
// from a mechanism, a cache promotion and a switch with an empty reason.
// glued is the same stream as every reader saw it when the owner label
// and the detail were built at record time.
func labelEvents(n int) (split, glued []Event) {
	at := time.Date(2005, time.June, 10, 12, 0, 0, 0, time.UTC)
	details := []struct {
		detail string
		args   DetailArgs
		built  string
	}{
		{"", DetailArgs{}, ""},
		{"deferred ", DetailArgs{Wait: 1500 * time.Millisecond, Timed: true}, "deferred " + (1500 * time.Millisecond).String()},
		{"deferred ", DetailArgs{Timed: true}, "deferred " + time.Duration(0).String()},
		{"degraded: ", DetailArgs{Reason: "queue full"}, "degraded: " + "queue full"},
		{"degraded from ", DetailArgs{From: "extInfra", Reason: "low battery"}, "degraded from " + "extInfra" + ": " + "low battery"},
		{"promoted from cache: ", DetailArgs{Reason: "stale"}, "promoted from cache: " + "stale"},
		{"from ", DetailArgs{From: "intSensor"}, "from " + "intSensor" + ": " + ""},
	}
	for i := 0; len(split) < n; i++ {
		q := fmt.Sprintf("q-%d", i)
		a, e := details[i%len(details)], details[(i+3)%len(details)]
		split = append(split,
			Event{At: at, Owner: "boat-1", Query: q, Kind: EventSubmitted, Detail: "temperature"},
			Event{At: at, Owner: "boat-10", Query: q, Kind: EventAssigned, Mechanism: "extInfra", Detail: a.detail, Args: a.args},
			Event{At: at, Query: "fault-" + q, Kind: EventFaultInjected, Mechanism: "gps-off"},
			Event{At: at, Query: q, Kind: EventExpired, Mechanism: "cache", Detail: e.detail, Args: e.args},
		)
		glued = append(glued,
			Event{At: at, Query: "boat-1/" + q, Kind: EventSubmitted, Detail: "temperature"},
			Event{At: at, Query: "boat-10/" + q, Kind: EventAssigned, Mechanism: "extInfra", Detail: a.built},
			Event{At: at, Query: "fault-" + q, Kind: EventFaultInjected, Mechanism: "gps-off"},
			Event{At: at, Query: q, Kind: EventExpired, Mechanism: "cache", Detail: e.built},
		)
		at = at.Add(time.Second)
	}
	return split[:n], glued[:n]
}

// Events carry their owner apart from the query id, and their detail's
// arguments apart from its text, and are joined on read: the ring, the
// registry snapshot and its JSON and text exposition show "owner/q-N" and
// the detail exactly as when both were built at record time, before and
// after the ring wraps, for owned and owner-less events alike.
func TestRingLabelsJoinOnRead(t *testing.T) {
	for _, n := range []int{6, DefaultRingCapacity, DefaultRingCapacity + 7} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			splitEvs, gluedEvs := labelEvents(n)
			split, glued := NewRegistry(), NewRegistry()
			for i := range splitEvs {
				split.Record(splitEvs[i])
				glued.Record(gluedEvs[i])
			}
			got, want := split.Events().Events(), glued.Events().Events()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ring events differ from record-time labels")
			}
			// The labels themselves: retained event k is input event
			// first+k, whose label its position in the stream fixes.
			first := n - len(got)
			for k, ev := range got {
				j := first + k
				wantQ := fmt.Sprintf([]string{"boat-1/q-%d", "boat-10/q-%d", "fault-q-%d", "q-%d"}[j%4], j/4)
				if ev.Query != wantQ || ev.Owner != "" || ev.Args != (DetailArgs{}) {
					t.Fatalf("event %d reads %q (owner %q, args %+v), want %q", j, ev.Query, ev.Owner, ev.Args, wantQ)
				}
			}
			if n > DefaultRingCapacity && split.Events().Dropped() == 0 {
				t.Fatal("ring did not wrap")
			}
			gs, ws := split.Snapshot(), glued.Snapshot()
			if !reflect.DeepEqual(gs, ws) {
				t.Fatal("snapshots differ")
			}
			gj, err := gs.MarshalJSONIndent()
			if err != nil {
				t.Fatal(err)
			}
			wj, err := ws.MarshalJSONIndent()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gj, wj) {
				t.Fatalf("JSON exposition differs:\n%s\nwant\n%s", gj, wj)
			}
			if bytes.Contains(gj, []byte("Owner")) || bytes.Contains(gj, []byte(`"owner"`)) || bytes.Contains(gj, []byte("Args")) {
				t.Fatal("JSON exposition shows the owner or argument fields")
			}
			if gs.String() != ws.String() {
				t.Fatalf("text exposition differs:\n%s\nwant\n%s", gs, ws)
			}
		})
	}
}

// Recording an event allocates nothing: the ring copies it into a slot.
func TestRecordAllocs(t *testing.T) {
	reg := NewRegistry()
	ev := Event{At: time.Unix(0, 0), Owner: "boat-1", Query: "q-1", Kind: EventDelivered, Mechanism: "extInfra"}
	if got := testing.AllocsPerRun(2*DefaultRingCapacity, func() { reg.Record(ev) }); got != 0 {
		t.Fatalf("Registry.Record allocates %v times, want 0", got)
	}
}
