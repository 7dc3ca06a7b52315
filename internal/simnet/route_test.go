package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"contory/internal/radio"
	"contory/internal/vclock"
)

// Neighbors lists nodes in ID order however they were added: a node whose
// ID sorts before existing ones takes its place in every grid cell and
// explicit adjacency by rank, shifting the ranks behind it.
func TestNeighborsIDOrderOutOfOrderInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	names := []NodeID{"p00002", "infra", "boat-1", "p00001", "p00001-gps", "boat-10", "a", "p00003", "z", "boat-2"}
	for trial := 0; trial < 50; trial++ {
		nw := New(vclock.NewSimulator())
		nw.SetRange(radio.MediumWiFi, 30)
		ids := slices.Clone(names)
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for k, id := range ids {
			// Spread over neighbouring cells, all within range of the
			// centre, so candidates arrive in cell order, not ID order.
			pos := Position{X: rng.Float64()*40 - 20, Y: rng.Float64()*40 - 20}
			if _, err := nw.AddNode(id, pos); err != nil {
				t.Fatal(err)
			}
			if k > 0 {
				if err := nw.Connect(id, ids[rng.Intn(k)], radio.MediumBT); err != nil {
					t.Fatal(err)
				}
			}
			for _, m := range []radio.Medium{radio.MediumWiFi, radio.MediumBT} {
				for _, x := range ids[:k+1] {
					got := nw.Neighbors(x, m)
					want := bruteNeighbors(nw, x, m)
					if !slices.Equal(got, want) {
						t.Fatalf("trial %d, after adding %v: Neighbors(%s, %s) = %v, want %v", trial, ids[:k+1], x, m, got, want)
					}
				}
			}
		}
	}
}

// warmGrid is a 5,000-node WiFi range grid at the fleet's density (about
// ten nodes in range of each), after one search has grown the scratch.
func warmGrid(tb testing.TB) (*Network, []NodeID) {
	tb.Helper()
	const n, r = 5000, 50.0
	side := math.Sqrt(n * math.Pi * r * r / 10)
	rng := rand.New(rand.NewSource(11))
	nw := New(vclock.NewSimulator())
	nw.SetRange(radio.MediumWiFi, r)
	nw.SetRange(radio.MediumBT, 10)
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(fmt.Sprintf("p%05d", i))
		node, err := nw.AddNode(ids[i], Position{X: rng.Float64() * side, Y: rng.Float64() * side})
		if err != nil {
			tb.Fatal(err)
		}
		node.SetVelocity(Position{X: rng.Float64()*2 - 1, Y: rng.Float64()*2 - 1})
	}
	nw.Within(ids[0], radio.MediumWiFi, 0, nil, nil)
	return nw, ids
}

var (
	sinkNode  *Node
	sinkHops  int
	sinkReach []Reach
)

// On a warm grid, route searches, one-hop sweeps and mobility ticks
// allocate nothing: no per-call map, result slice or closure.
func TestRouteSearchAllocs(t *testing.T) {
	nw, ids := warmGrid(t)
	a := ids[0]
	nbs := nw.Neighbors(a, radio.MediumWiFi)
	if len(nbs) == 0 {
		t.Fatal("no neighbour to route to")
	}
	// A destination several hops away, through relays that forward only
	// for every other node index.
	var far NodeID
	relay := func(i int32) bool { return i%2 == 0 }
	for _, b := range ids[1:] {
		if _, h, ok := nw.Route(a, b, radio.MediumWiFi, nil); ok && h >= 4 {
			far = b
			break
		}
	}
	if far == "" {
		t.Fatal("no destination four hops away")
	}
	buf := make([]Reach, 0, 64)
	cases := []struct {
		name string
		fn   func()
	}{
		{"direct-link search", func() {
			sinkNode, sinkHops, _ = nw.Route(a, nbs[0], radio.MediumWiFi, relay)
		}},
		{"multi-hop search", func() {
			sinkNode, sinkHops, _ = nw.Route(a, far, radio.MediumWiFi, nil)
		}},
		{"one-hop sweep", func() {
			sinkReach = nw.Within(a, radio.MediumWiFi, 1, relay, buf[:0])
		}},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(100, c.fn); got != 0 {
			t.Errorf("%s: %v allocations, want 0", c.name, got)
		}
	}
	if _, h, _ := nw.Route(a, far, radio.MediumWiFi, nil); h < 4 {
		t.Fatalf("multi-hop search took %d hops", h)
	}
	// Ticks alternate direction so every node shuttles between the same
	// cells once the grids are warm.
	dt := 5.0
	tick := func() {
		nw.integrate(dt)
		dt = -dt
	}
	tick()
	tick()
	if got := testing.AllocsPerRun(100, tick); got != 0 {
		t.Errorf("mobility tick: %v allocations, want 0", got)
	}
}
