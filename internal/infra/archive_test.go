package infra

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"contory/internal/cxt"
	"contory/internal/fuego"
	"contory/internal/provider"
	"contory/internal/query"
	"contory/internal/simnet"
	"contory/internal/vclock"
)

// archiveOracle is the former archive, kept as the reference the ring is
// checked against: every store appends, then the log is re-sliced to its
// newest capacity entries; a get walks it newest first.
type archiveOracle struct {
	items    []stored
	byEntity map[string]cxt.Fix
	capacity int
}

func (o *archiveOracle) store(from simnet.NodeID, it cxt.Item) {
	entry := stored{item: it, owner: from}
	if fix, isFix := it.Value.(cxt.Fix); isFix {
		o.byEntity[string(from)] = fix
		entry.pos, entry.hasPo = fix, true
	} else if pos, known := o.byEntity[string(from)]; known {
		entry.pos, entry.hasPo = pos, true
	}
	o.items = append(o.items, entry)
	if len(o.items) > o.capacity {
		o.items = o.items[len(o.items)-o.capacity:]
	}
}

func (o *archiveOracle) get(now time.Time, iq provider.InfraQuery) []cxt.Item {
	max := iq.MaxItems
	if max <= 0 {
		max = 1
	}
	var out []cxt.Item
	for i := len(o.items) - 1; i >= 0 && len(out) < max; i-- {
		s := o.items[i]
		if s.item.Type != iq.Select {
			continue
		}
		if !s.item.FreshEnough(now, iq.Freshness) || s.item.Expired(now) {
			continue
		}
		if iq.Entity != "" && string(s.owner) != iq.Entity {
			continue
		}
		if iq.Region != nil {
			if !s.hasPo || !inRegion(s.pos, *iq.Region) {
				continue
			}
		}
		out = append(out, s.item)
	}
	return out
}

var (
	archiveTypes    = []cxt.Type{cxt.TypeLocation, cxt.TypeWind, cxt.TypeTemperature}
	archiveEntities = []simnet.NodeID{"boat1", "boat2", "boat3"}
)

// archiveOp is one generated step: advance the clock, store an item, then
// ask one query.
type archiveOp struct {
	Advance  uint8 // virtual seconds
	From     uint8 // index into archiveEntities
	Type     uint8 // index into archiveTypes; locations carry a fix
	Lat, Lon uint8
	Lifetime uint8 // virtual seconds (0 = unbounded)

	QType     uint8 // index into archiveTypes
	QEntity   uint8 // index into archiveEntities, or none beyond it
	QRegion   uint8 // a region around (QRegion%10, QRegion/10%10) when odd
	QFresh    uint8 // virtual seconds (0 = any)
	QMaxItems uint8
}

func newTestArchive(t *testing.T, capacity int) (*vclock.Simulator, *Infrastructure) {
	t.Helper()
	clk := vclock.NewSimulator()
	inf, err := New(Config{Network: simnet.New(clk), NodeID: "infra", Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	return clk, inf
}

// Property: over store sequences that wrap a small ring many times, every
// get returns exactly the former archive's items, and Stored agrees.
func TestArchiveMatchesOracle(t *testing.T) {
	prop := func(ops []archiveOp, capRaw uint8) bool {
		capacity := int(capRaw%8) + 1
		clk, inf := newTestArchive(t, capacity)
		o := &archiveOracle{byEntity: make(map[string]cxt.Fix), capacity: capacity}
		for i, op := range ops {
			clk.Advance(time.Duration(op.Advance%6) * time.Second)
			it := cxt.Item{
				Type:      archiveTypes[int(op.Type)%len(archiveTypes)],
				Value:     float64(i),
				Timestamp: clk.Now(),
				Lifetime:  time.Duration(op.Lifetime%40) * time.Second,
			}
			if it.Type == cxt.TypeLocation {
				it.Value = cxt.Fix{Lat: float64(op.Lat % 10), Lon: float64(op.Lon % 10)}
			}
			from := archiveEntities[int(op.From)%len(archiveEntities)]
			inf.handleStore(from, it)
			o.store(from, it)
			if inf.Stored() != len(o.items) {
				t.Logf("op %d: Stored = %d, oracle %d", i, inf.Stored(), len(o.items))
				return false
			}

			iq := provider.InfraQuery{
				Select:    archiveTypes[int(op.QType)%len(archiveTypes)],
				Freshness: time.Duration(op.QFresh%30) * time.Second,
				MaxItems:  int(op.QMaxItems % 10),
			}
			if e := int(op.QEntity) % (len(archiveEntities) + 1); e < len(archiveEntities) {
				iq.Entity = string(archiveEntities[e])
			}
			if op.QRegion%2 == 1 {
				iq.Region = &query.Region{X: float64(op.QRegion % 10), Y: float64(op.QRegion / 10 % 10), Radius: 3}
			}
			want := o.get(clk.Now(), iq)
			got, err := inf.handleGet(fuego.Request{Payload: iq})
			if len(want) == 0 {
				if !errors.Is(err, ErrNoData) {
					t.Logf("op %d %+v: got %+v, %v, want ErrNoData", i, iq, got, err)
					return false
				}
				continue
			}
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Logf("op %d %+v: got %+v, %v, want %+v", i, iq, got, err, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// fillArchive stores one more item than the archive holds, so the next
// store overwrites the oldest entry. The item is boxed once, as the event
// layer delivers it.
func fillArchive(clk *vclock.Simulator, inf *Infrastructure, capacity int) any {
	var payload any = cxt.Item{Type: cxt.TypeWind, Value: 8.0, Timestamp: clk.Now()}
	inf.handleStore("boat1", cxt.Item{Type: cxt.TypeLocation, Value: fix(60.1, 24.9, 5), Timestamp: clk.Now()})
	for i := 0; i < capacity; i++ {
		inf.handleStore("boat1", payload)
	}
	return payload
}

// A store into a full archive overwrites a slot and allocates nothing.
func TestArchiveStoreAllocs(t *testing.T) {
	const capacity = 64
	clk, inf := newTestArchive(t, capacity)
	payload := fillArchive(clk, inf, capacity)
	if got := testing.AllocsPerRun(200, func() { inf.handleStore("boat1", payload) }); got != 0 {
		t.Fatalf("full-archive store allocates %v times, want 0", got)
	}
	if inf.Stored() != capacity {
		t.Fatalf("Stored = %d, want %d", inf.Stored(), capacity)
	}
}

// BenchmarkArchiveStore stores into a full archive of the default capacity.
func BenchmarkArchiveStore(b *testing.B) {
	clk := vclock.NewSimulator()
	inf, err := New(Config{Network: simnet.New(clk), NodeID: "infra"})
	if err != nil {
		b.Fatal(err)
	}
	payload := fillArchive(clk, inf, inf.capacity)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inf.handleStore("boat1", payload)
	}
}
