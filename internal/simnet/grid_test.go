package simnet

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"contory/internal/radio"
	"contory/internal/vclock"
)

// bruteNeighbors is the O(n) reference the grid must agree with exactly.
func bruteNeighbors(nw *Network, id NodeID, m radio.Medium) []NodeID {
	var out []NodeID
	for _, other := range nw.Nodes() {
		if other == id {
			continue
		}
		if nw.Linked(id, other, m) {
			out = append(out, other)
		}
	}
	return out
}

// The spatial index must make identical link decisions to a full scan,
// under every feature that affects linking: range, explicit links, failed
// links, down nodes, radios off, and mobility.
func TestGridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	clk := vclock.NewSimulator()
	nw := New(clk)
	nw.SetRange(radio.MediumWiFi, 50)
	nw.SetRange(radio.MediumBT, 10)

	const n = 300
	ids := make([]NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = NodeID(fmt.Sprintf("n%03d", i))
		if _, err := nw.AddNode(ids[i], Position{X: rng.Float64() * 400, Y: rng.Float64() * 400}); err != nil {
			t.Fatal(err)
		}
	}
	// Explicit links, some spanning far beyond range.
	for i := 0; i < 80; i++ {
		a, b := ids[rng.Intn(n)], ids[rng.Intn(n)]
		if a != b {
			if err := nw.Connect(a, b, radio.MediumWiFi); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Perturbations.
	for i := 0; i < 30; i++ {
		nw.Node(ids[rng.Intn(n)]).SetDown(true)
		nw.Node(ids[rng.Intn(n)]).SetRadio(radio.MediumWiFi, false)
		nw.FailLink(ids[rng.Intn(n)], ids[rng.Intn(n)], radio.MediumWiFi)
	}

	check := func(stage string) {
		t.Helper()
		for _, m := range []radio.Medium{radio.MediumWiFi, radio.MediumBT} {
			for _, id := range ids {
				got := nw.Neighbors(id, m)
				want := bruteNeighbors(nw, id, m)
				if len(got) != len(want) {
					t.Fatalf("%s: %s over %s: grid %v, brute %v", stage, id, m, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: %s over %s: grid %v, brute %v", stage, id, m, got, want)
					}
				}
			}
		}
	}
	check("initial")

	// Move a third of the nodes (invalidates the grid) and re-check.
	for i := 0; i < n/3; i++ {
		nw.Node(ids[rng.Intn(n)]).SetPosition(Position{X: rng.Float64() * 400, Y: rng.Float64() * 400})
	}
	check("after teleports")

	// Mobility ticks must also invalidate.
	for i := 0; i < 40; i++ {
		nw.Node(ids[rng.Intn(n)]).SetVelocity(Position{X: rng.Float64()*10 - 5, Y: rng.Float64()*10 - 5})
	}
	nw.StartMobility(time.Second)
	clk.Advance(5 * time.Second)
	check("after mobility")

	// Shrinking the range must drop now-distant pairs.
	nw.SetRange(radio.MediumWiFi, 15)
	check("after range change")

	// Nodes exactly at negative coordinates (cell-boundary edge case).
	if _, err := nw.AddNode("neg", Position{X: -50, Y: -50}); err != nil {
		t.Fatal(err)
	}
	ids = append(ids, "neg")
	check("after negative-coordinate node")
}

// Property test: drive the incremental index through a long randomized
// churn — teleports, node additions, range changes, radio/down flips, link
// faults, partitions, and mobility ticks — asserting exact agreement with
// the brute-force scan after every single mutation. Any stale cell entry,
// missed migration, or dangling where-pointer shows up as a neighbour-set
// divergence at the step that introduced it.
func TestGridIncrementalChurnProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1311))
	clk := vclock.NewSimulator()
	nw := New(clk)
	nw.SetRange(radio.MediumWiFi, 60)
	nw.SetRange(radio.MediumBT, 12)

	var ids []NodeID
	addNode := func() {
		id := NodeID(fmt.Sprintf("c%03d", len(ids)))
		if _, err := nw.AddNode(id, Position{X: rng.Float64() * 500, Y: rng.Float64() * 500}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 60; i++ {
		addNode()
	}
	pick := func() NodeID { return ids[rng.Intn(len(ids))] }

	check := func(step int, op string) {
		t.Helper()
		for _, m := range []radio.Medium{radio.MediumWiFi, radio.MediumBT} {
			for _, id := range ids {
				got := nw.Neighbors(id, m)
				want := bruteNeighbors(nw, id, m)
				if len(got) != len(want) {
					t.Fatalf("step %d (%s): %s over %s: grid %v, brute %v", step, op, id, m, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("step %d (%s): %s over %s: grid %v, brute %v", step, op, id, m, got, want)
					}
				}
			}
		}
	}

	nw.StartMobility(time.Second)
	var parts []int
	for step := 0; step < 200; step++ {
		op := ""
		switch r := rng.Intn(20); {
		case r < 6: // teleport, sometimes onto negative coordinates
			op = "teleport"
			nw.Node(pick()).SetPosition(Position{X: rng.Float64()*600 - 100, Y: rng.Float64()*600 - 100})
		case r < 9: // mobility tick over whatever velocities are set
			op = "mobility"
			nw.Node(pick()).SetVelocity(Position{X: rng.Float64()*20 - 10, Y: rng.Float64()*20 - 10})
			clk.Advance(time.Second)
		case r < 11:
			op = "add"
			if len(ids) < 110 {
				addNode()
			}
		case r < 13: // grow or shrink a medium's range (rebuilds its grid)
			op = "range"
			nw.SetRange(radio.MediumWiFi, 10+rng.Float64()*90)
		case r < 15:
			op = "radio/down"
			nw.Node(pick()).SetRadio(radio.MediumBT, rng.Intn(2) == 0)
			nw.Node(pick()).SetDown(rng.Intn(2) == 0)
		case r < 17:
			op = "fault"
			a, b := pick(), pick()
			if rng.Intn(2) == 0 {
				nw.FailLink(a, b, radio.MediumWiFi)
			} else {
				nw.RestoreLink(a, b, radio.MediumWiFi)
			}
		case r < 18:
			op = "connect"
			a, b := pick(), pick()
			if a != b {
				_ = nw.Connect(a, b, radio.MediumWiFi)
			}
		default:
			op = "partition"
			if len(parts) > 0 && rng.Intn(2) == 0 {
				nw.Heal(parts[len(parts)-1])
				parts = parts[:len(parts)-1]
			} else {
				members := []NodeID{pick(), pick(), pick()}
				parts = append(parts, nw.Partition(radio.MediumWiFi, members...))
			}
		}
		check(step, op)
	}
}

// Regression guard for the PR-8 lock-inversion class of bug: grid
// maintenance used to take per-node locks while already holding nw.mu,
// opposite to the setters' lock order, deadlocking under churn. Node state
// is lock-free now, so hammering setters, queries, and range rebuilds from
// many goroutines must neither deadlock nor trip the race detector. The
// watchdog fails fast instead of hanging the suite if an inversion returns.
func TestGridMaintenanceLockFreeUnderChurn(t *testing.T) {
	clk := vclock.NewSimulator()
	nw := New(clk)
	nw.SetRange(radio.MediumWiFi, 40)
	const n = 64
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(fmt.Sprintf("h%02d", i))
		if _, err := nw.AddNode(ids[i], Position{X: float64(i), Y: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	hammer := func(fn func(rng *rand.Rand, i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(len(ids))))
			for i := 0; i < 2000; i++ {
				fn(rng, i)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		hammer(func(rng *rand.Rand, i int) { // movers: exercise grid migration
			nw.Node(ids[rng.Intn(n)]).SetPosition(Position{X: rng.Float64() * 200, Y: rng.Float64() * 200})
			nw.Node(ids[rng.Intn(n)]).SetVelocity(Position{X: 1, Y: -1})
		})
	}
	for g := 0; g < 2; g++ {
		hammer(func(rng *rand.Rand, i int) { // togglers: node-state writers
			nw.Node(ids[rng.Intn(n)]).SetRadio(radio.MediumWiFi, i%2 == 0)
			nw.Node(ids[rng.Intn(n)]).SetDown(i%3 == 0)
		})
	}
	for g := 0; g < 2; g++ {
		hammer(func(rng *rand.Rand, i int) { // queriers: read under nw.mu
			nw.Neighbors(ids[rng.Intn(n)], radio.MediumWiFi)
			nw.Linked(ids[rng.Intn(n)], ids[rng.Intn(n)], radio.MediumWiFi)
		})
	}
	hammer(func(rng *rand.Rand, i int) { // ranger: full-grid rebuilds under nw.mu
		nw.SetRange(radio.MediumWiFi, 20+float64(i%40))
	})

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("grid maintenance deadlocked: churn did not finish within 30s")
	}
}

// BenchmarkNeighborsUnderMobility measures the steady-state cost the fleet
// driver pays: one mobility tick (n incremental cell migrations) followed
// by a burst of neighbour queries, with the old design's full O(n) grid
// rebuild on every post-move query replaced by incremental maintenance.
func BenchmarkNeighborsUnderMobility(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	clk := vclock.NewSimulator()
	nw := New(clk)
	nw.SetRange(radio.MediumWiFi, 50)
	const n = 1000
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(fmt.Sprintf("m%04d", i))
		if _, err := nw.AddNode(ids[i], Position{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}); err != nil {
			b.Fatal(err)
		}
		nw.Node(ids[i]).SetVelocity(Position{X: rng.Float64()*4 - 2, Y: rng.Float64()*4 - 2})
	}
	nw.StartMobility(time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.Advance(time.Second)
		for j := 0; j < 16; j++ {
			nw.Neighbors(ids[(i*16+j)%n], radio.MediumWiFi)
		}
	}
}

// TestNeighborsAllocs: a neighbour query allocates exactly the slice it
// returns when the node has neighbours, and nothing when it has none, at
// 10 and at 1,000 nodes: the candidate buffer is reused.
func TestNeighborsAllocs(t *testing.T) {
	for _, n := range []int{10, 1000} {
		rng := rand.New(rand.NewSource(int64(n)))
		nw := New(vclock.NewSimulator())
		nw.SetRange(radio.MediumWiFi, 50)
		side := 100.0 // most of the ten in range of each other
		if n == 1000 {
			side = 1000
		}
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = NodeID(fmt.Sprintf("m%04d", i))
			if _, err := nw.AddNode(ids[i], Position{X: rng.Float64() * side, Y: rng.Float64() * side}); err != nil {
				t.Fatal(err)
			}
		}
		// A pair in range of each other and nothing else, and a loner.
		for _, id := range []NodeID{"pair-a", "pair-b", "loner"} {
			if _, err := nw.AddNode(id, Position{X: -1000, Y: -1000}); err != nil {
				t.Fatal(err)
			}
		}
		nw.Node("loner").SetPosition(Position{X: -5000, Y: -5000})
		crowded := ids[0]
		for _, id := range ids {
			if len(nw.Neighbors(id, radio.MediumWiFi)) > len(nw.Neighbors(crowded, radio.MediumWiFi)) {
				crowded = id
			}
		}
		for _, c := range []struct {
			id   NodeID
			want float64
		}{{"pair-a", 1}, {crowded, 1}, {"loner", 0}} {
			got := testing.AllocsPerRun(100, func() { nw.Neighbors(c.id, radio.MediumWiFi) })
			if got != c.want {
				t.Errorf("%d nodes: Neighbors(%s) with %d neighbours: %v allocations, want %v",
					n, c.id, len(nw.Neighbors(c.id, radio.MediumWiFi)), got, c.want)
			}
		}
	}
}

func TestShardingAssignsStableLanes(t *testing.T) {
	clk := vclock.NewSimulator()
	nw := New(clk)
	if err := nw.EnableSharding(8); err != nil {
		t.Fatal(err)
	}
	if !nw.Sharded() || nw.Lanes() != 8 {
		t.Fatalf("Sharded()=%v Lanes()=%d", nw.Sharded(), nw.Lanes())
	}
	l1 := nw.LaneOf("phone-42")
	l2 := nw.LaneOf("phone-42")
	if l1 != l2 {
		t.Fatalf("lane not stable: %d vs %d", l1, l2)
	}
	if l1 < 0 || l1 >= 8 {
		t.Fatalf("lane out of range: %d", l1)
	}
	if _, err := nw.AddNode("a", Position{}); err != nil {
		t.Fatal(err)
	}
	if err := nw.EnableSharding(4); err == nil {
		t.Fatal("EnableSharding after AddNode should fail")
	}
}

func TestClockForUnsharded(t *testing.T) {
	clk := vclock.NewSimulator()
	nw := New(clk)
	if nw.ClockFor("x") != vclock.Clock(clk) {
		t.Fatal("unsharded ClockFor should be the simulator itself")
	}
	if nw.LaneOf("x") != vclock.GlobalLane {
		t.Fatalf("unsharded LaneOf = %d, want GlobalLane", nw.LaneOf("x"))
	}
}

// Loss decisions are keyed draws, independent of delivery interleaving:
// the same directed link's k-th delivery always gets the same verdict for a
// given seed.
func TestShardedLossDeterministic(t *testing.T) {
	run := func() []bool {
		clk := vclock.NewSimulator()
		nw := New(clk)
		if err := nw.EnableSharding(4); err != nil {
			t.Fatal(err)
		}
		nw.Seed(99)
		if _, err := nw.AddNode("a", Position{}); err != nil {
			t.Fatal(err)
		}
		if _, err := nw.AddNode("b", Position{X: 1}); err != nil {
			t.Fatal(err)
		}
		nw.SetLoss("a", "b", radio.MediumWiFi, 0.5)
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, nw.lossDrop("a", "b", radio.MediumWiFi))
		}
		return out
	}
	r1, r2 := run(), run()
	drops := 0
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("loss decision %d differs between identical runs", i)
		}
		if r1[i] {
			drops++
		}
	}
	if drops == 0 || drops == len(r1) {
		t.Fatalf("hash loss degenerate: %d/%d drops at p=0.5", drops, len(r1))
	}
}

// A serial and a sharded network with the same seed make the same loss
// decisions on every directed link, whatever order the links' deliveries
// interleave in.
func TestLossDecisionsIgnoreSharding(t *testing.T) {
	type link struct{ from, to NodeID }
	links := []link{{"a", "b"}, {"b", "a"}, {"a", "c"}, {"c", "d"}, {"d", "c"}}
	const per = 200
	decide := func(lanes int, order func(step int) int) map[link][]bool {
		nw := New(vclock.NewSimulator())
		if lanes > 0 {
			if err := nw.EnableSharding(lanes); err != nil {
				t.Fatal(err)
			}
		}
		nw.Seed(20061127)
		for i, id := range []NodeID{"a", "b", "c", "d"} {
			if _, err := nw.AddNode(id, Position{X: float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		nw.SetLoss("a", "b", radio.MediumWiFi, 0.4)
		nw.SetLoss("a", "c", radio.MediumWiFi, 0.2)
		nw.SetNodeLoss("d", radio.MediumWiFi, 0.5)
		out := make(map[link][]bool)
		for step := 0; step < per*len(links); step++ {
			l := links[order(step)]
			out[l] = append(out[l], nw.lossDrop(l.from, l.to, radio.MediumWiFi))
		}
		return out
	}
	// Round-robin over the links, against one link at a time in reverse.
	serial := decide(0, func(step int) int { return step % len(links) })
	sharded := decide(4, func(step int) int { return len(links) - 1 - step/per })
	for _, l := range links {
		drops := 0
		for k := 0; k < per; k++ {
			if serial[l][k] != sharded[l][k] {
				t.Fatalf("%s→%s delivery %d: serial drop=%v, sharded drop=%v", l.from, l.to, k, serial[l][k], sharded[l][k])
			}
			if serial[l][k] {
				drops++
			}
		}
		if drops == 0 || drops == per {
			t.Errorf("%s→%s: %d/%d drops, want a lossy mix", l.from, l.to, drops, per)
		}
	}
}
