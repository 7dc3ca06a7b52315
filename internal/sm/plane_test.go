package sm

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"contory/internal/radio"
	"contory/internal/simnet"
	"contory/internal/vclock"
)

// Flipping a node's participation costs nothing however many nodes are
// installed: no copy of a participant set, no allocation.
func TestLeaveJoinAllocs(t *testing.T) {
	clk := vclock.NewSimulator()
	nw := simnet.New(clk)
	p := NewPlatform(nw, 1)
	const n = 5000
	for i := 0; i < n; i++ {
		id := simnet.NodeID(fmt.Sprintf("p%05d", i))
		if _, err := nw.AddNode(id, simnet.Position{X: float64(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Install(id, Admission{}); err != nil {
			t.Fatal(err)
		}
	}
	rt := p.Runtime("p02500")
	if got := testing.AllocsPerRun(100, func() {
		rt.Leave()
		rt.Join()
	}); got != 0 {
		t.Fatalf("Leave+Join with %d installed nodes: %v allocations, want 0", n, got)
	}
	idx := rt.Node().Index()
	if !rt.Participating() || !p.relays(idx) {
		t.Fatal("node not participating after Join")
	}
	// Route searches ask this of every neighbour they expand.
	var in bool
	if got := testing.AllocsPerRun(100, func() { in = p.relays(idx) }); got != 0 || !in {
		t.Fatalf("relay lookup: %v allocations (result %v), want 0", got, in)
	}
	// A route search through the platform's relay predicate allocates
	// nothing either: three hops along the line of participants.
	nw.SetRange(radio.MediumWiFi, 1.5)
	var hops int
	if got := testing.AllocsPerRun(100, func() { _, hops, _ = p.route("p02500", "p02503") }); got != 0 || hops != 3 {
		t.Fatalf("route search: %v allocations (%d hops), want 0", got, hops)
	}
}

// shardedPlatform returns a platform over a lane-sharded network, the mode
// fleet runs use.
func shardedPlatform(t testing.TB) *Platform {
	t.Helper()
	nw := simnet.New(vclock.NewSimulator())
	if err := nw.EnableSharding(4); err != nil {
		t.Fatal(err)
	}
	return NewPlatform(nw, 1)
}

var sinkLatency time.Duration

func TestShardedHopLatencyAllocs(t *testing.T) {
	p := shardedPlatform(t)
	m := &Message{ID: "sm-p00042-7", HopCnt: 3}
	if got := testing.AllocsPerRun(100, func() {
		sinkLatency = p.hopLatency(m, true, false, false)
	}); got != 0 {
		t.Fatalf("sharded hopLatency: %v allocations, want 0", got)
	}
}

// A hop's latency is a function of (platform seed, message, hop) alone: a
// sharded and a serial platform with the same seed draw the same latency
// for it, whatever either drew before, and another seed draws another.
func TestHopLatencyIgnoresSharding(t *testing.T) {
	sharded := shardedPlatform(t)
	serial := NewPlatform(simnet.New(vclock.NewSimulator()), 1)
	other := NewPlatform(simnet.New(vclock.NewSimulator()), 2)
	rng := rand.New(rand.NewSource(3))
	moved := 0
	for i := 0; i < 1500; i++ {
		m := &Message{
			ID:     fmt.Sprintf("sm-p%05d-%d", rng.Intn(40), rng.Intn(5)),
			HopCnt: rng.Intn(8),
		}
		depart, arrive, cached := rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0
		got := sharded.hopLatency(m, depart, arrive, cached)
		if want := serial.hopLatency(m, depart, arrive, cached); got != want {
			t.Fatalf("draw %d (%s hop %d): sharded %v, serial %v", i, m.ID, m.HopCnt, got, want)
		}
		if other.hopLatency(m, depart, arrive, cached) != got {
			moved++
		}
	}
	if moved < 1400 {
		t.Fatalf("another seed changed only %d of 1500 hop latencies", moved)
	}
}

// Lanes search routes and draw hop latencies at once: the lock-free runtime
// lookups and the keyed draws must give every goroutine what a serial run
// gives.
func TestConcurrentRouteSearchAndHopLatency(t *testing.T) {
	p := shardedPlatform(t)
	const n = 64
	ids := make([]simnet.NodeID, n)
	for i := range ids {
		ids[i] = simnet.NodeID(fmt.Sprintf("c%02d", i))
		if _, err := p.net.AddNode(ids[i], simnet.Position{}); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := p.net.Connect(ids[i-1], ids[i], radio.MediumWiFi); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.Install(ids[i], Admission{}); err != nil {
			t.Fatal(err)
		}
	}
	p.Runtime(ids[n/2]).Leave() // splits the line
	type answer struct {
		dists int
		path  []simnet.NodeID
		lat   time.Duration
	}
	ask := func(i int) answer {
		a, b := ids[i%n], ids[(i*7)%n]
		path, _ := p.shortestPath(a, b)
		m := &Message{ID: fmt.Sprintf("sm-%s-%d", a, i), HopCnt: i % 5}
		return answer{len(p.hopDistances(a, 3)), path, p.hopLatency(m, i%2 == 0, false, i%3 == 0)}
	}
	const queries = 400
	want := make([]answer, queries)
	for i := range want {
		want[i] = ask(i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < queries; k++ {
				i := (k*5 + g*97) % queries
				if got := ask(i); got.dists != want[i].dists || got.lat != want[i].lat || !slices.Equal(got.path, want[i].path) {
					t.Errorf("goroutine %d query %d: %+v, serial %+v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// shortestPath is the path a finder travels from a to b, excluding a and
// including b: each hop is the first hop of a fresh route search from
// where the SM then is. Every search must be one hop shorter than the one
// before it.
func (p *Platform) shortestPath(a, b simnet.NodeID) ([]simnet.NodeID, bool) {
	var path []simnet.NodeID
	want := -1
	for at := a; at != b; want-- {
		next, hops, ok := p.route(at, b)
		if !ok || (want >= 0 && hops != want) {
			return nil, false
		}
		want = hops
		at = next.ID()
		path = append(path, at)
	}
	return path, true
}

// hopDistances is discovery's sweep: every participant within maxHops of
// origin (0 = unbounded), with its hop count.
func (p *Platform) hopDistances(origin simnet.NodeID, maxHops int) []simnet.Reach {
	return p.net.Within(origin, radio.MediumWiFi, maxHops, p.relays, nil)
}

// bruteDistances is the reference route search: BFS over the test's own
// edge list, expanding only into nodes that read the participation tag
// (plus the origin, and the destination when one is given), visiting
// neighbours in ID order.
func bruteDistances(adj map[simnet.NodeID][]simnet.NodeID, tagged func(simnet.NodeID) bool, origin, dest simnet.NodeID, maxHops int) (map[simnet.NodeID]int, map[simnet.NodeID]simnet.NodeID) {
	dist := map[simnet.NodeID]int{origin: 0}
	prev := map[simnet.NodeID]simnet.NodeID{}
	frontier := []simnet.NodeID{origin}
	for d := 1; len(frontier) > 0 && (maxHops <= 0 || d <= maxHops); d++ {
		var next []simnet.NodeID
		for _, cur := range frontier {
			for _, nb := range adj[cur] {
				if _, seen := dist[nb]; seen || (nb != dest && !tagged(nb)) {
					continue
				}
				dist[nb] = d
				prev[nb] = cur
				next = append(next, nb)
			}
		}
		frontier = next
	}
	return dist, prev
}

// wifiModel is the test's own statement of WiFi connectivity: two distinct
// nodes link when both are up with their radio on, no partition separates
// them, the link has not failed, and they are explicitly connected or
// within range.
type wifiModel struct {
	rangeM   float64
	pos      map[simnet.NodeID]simnet.Position
	explicit map[[2]simnet.NodeID]bool
	failed   map[[2]simnet.NodeID]bool
	down     map[simnet.NodeID]bool
	off      map[simnet.NodeID]bool
	parts    []map[simnet.NodeID]bool
}

func undirected(a, b simnet.NodeID) [2]simnet.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]simnet.NodeID{a, b}
}

func (w *wifiModel) linked(a, b simnet.NodeID) bool {
	if a == b || w.down[a] || w.down[b] || w.off[a] || w.off[b] || w.failed[undirected(a, b)] {
		return false
	}
	for _, part := range w.parts {
		if part[a] != part[b] {
			return false
		}
	}
	return w.explicit[undirected(a, b)] || w.pos[a].Distance(w.pos[b]) <= w.rangeM
}

// Property: on a random network — nodes added out of ID order, range and
// explicit links, failed links, partitions, down nodes and radios off —
// after any sequence of Install, Leave and Join, the route search gives
// the first hop and hop count, and the sweep the node set and distances,
// of a brute-force BFS over the participant set read from the tags, for
// every pair of nodes, participants or not.
func TestRouteSearchMatchesBruteForce(t *testing.T) {
	pool := []simnet.NodeID{"p00002", "infra", "boat-1", "p00001", "p00001-gps", "boat-10", "boat-2", "a", "z"}
	for i := 0; i < 24; i++ {
		pool = append(pool, simnet.NodeID(fmt.Sprintf("p%05d", 10+i)))
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nw := simnet.New(vclock.NewSimulator())
		p := NewPlatform(nw, seed)
		w := &wifiModel{
			rangeM:   20 + 40*rng.Float64(),
			pos:      map[simnet.NodeID]simnet.Position{},
			explicit: map[[2]simnet.NodeID]bool{},
			failed:   map[[2]simnet.NodeID]bool{},
			down:     map[simnet.NodeID]bool{},
			off:      map[simnet.NodeID]bool{},
		}
		rangeFirst := rng.Intn(2) == 0 // grid present while nodes arrive
		if rangeFirst {
			nw.SetRange(radio.MediumWiFi, w.rangeM)
		}
		n := 4 + rng.Intn(20)
		ids := slices.Clone(pool)
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		ids = ids[:n]
		for _, id := range ids {
			w.pos[id] = simnet.Position{X: 150 * rng.Float64(), Y: 150 * rng.Float64()}
			if _, err := nw.AddNode(id, w.pos[id]); err != nil {
				t.Fatal(err)
			}
		}
		if !rangeFirst {
			nw.SetRange(radio.MediumWiFi, w.rangeM)
		}
		pick := func() simnet.NodeID { return ids[rng.Intn(n)] }
		for e := rng.Intn(2 * n); e > 0; e-- {
			if a, b := pick(), pick(); a != b {
				if err := nw.Connect(a, b, radio.MediumWiFi); err != nil {
					t.Fatal(err)
				}
				w.explicit[undirected(a, b)] = true
			}
		}
		for e := rng.Intn(n); e > 0; e-- {
			a, b := pick(), pick()
			nw.FailLink(a, b, radio.MediumWiFi)
			w.failed[undirected(a, b)] = true
		}
		for k := rng.Intn(3); k > 0; k-- {
			part := map[simnet.NodeID]bool{}
			var members []simnet.NodeID
			for m := 1 + rng.Intn(n/2); m > 0; m-- {
				id := pick()
				part[id] = true
				members = append(members, id)
			}
			nw.Partition(radio.MediumWiFi, members...)
			w.parts = append(w.parts, part)
		}
		for k := rng.Intn(3); k > 0; k-- {
			id := pick()
			nw.Node(id).SetDown(true)
			w.down[id] = true
		}
		for k := rng.Intn(3); k > 0; k-- {
			id := pick()
			nw.Node(id).SetRadio(radio.MediumWiFi, false)
			w.off[id] = true
		}
		adj := map[simnet.NodeID][]simnet.NodeID{}
		for _, a := range ids {
			for _, b := range ids {
				if w.linked(a, b) {
					adj[a] = append(adj[a], b)
				}
			}
			slices.Sort(adj[a])
		}
		// Some nodes never get a runtime; the rest churn.
		for op := rng.Intn(4 * n); op > 0; op-- {
			id := pick()
			rt := p.Runtime(id)
			switch {
			case rt == nil && rng.Intn(3) > 0:
				if _, err := p.Install(id, Admission{}); err != nil {
					t.Fatal(err)
				}
			case rt != nil && rng.Intn(2) == 0:
				rt.Leave()
			case rt != nil:
				rt.Join()
			}
		}
		tagged := func(id simnet.NodeID) bool {
			rt := p.Runtime(id)
			return rt != nil && rt.Tags().Has(ParticipationTag)
		}
		for _, id := range ids {
			if rt := p.Runtime(id); rt != nil && rt.Participating() != tagged(id) {
				t.Logf("seed %d: %s Participating()=%v, tag=%v", seed, id, rt.Participating(), tagged(id))
				return false
			}
		}
		for _, a := range ids {
			maxHops := rng.Intn(4)
			want, _ := bruteDistances(adj, tagged, a, "", maxHops)
			delete(want, a)
			got := map[simnet.NodeID]int{}
			for _, r := range p.hopDistances(a, maxHops) {
				got[r.Node.ID()] = r.Hops
			}
			if !maps.Equal(got, want) {
				t.Logf("seed %d: sweep(%s, %d) = %v, want %v", seed, a, maxHops, got, want)
				return false
			}
			for _, b := range ids {
				next, hops, ok := p.route(a, b)
				dist, prev := bruteDistances(adj, tagged, a, b, 0)
				wantHops, reach := dist[b]
				if ok != reach || hops != wantHops {
					t.Logf("seed %d: route(%s, %s) = %d hops, ok=%v; brute force %d, %v", seed, a, b, hops, ok, wantHops, reach)
					return false
				}
				var wantNext simnet.NodeID
				for at := b; reach && at != a; at = prev[at] {
					wantNext = at
				}
				if gotNext := nodeID(next); gotNext != wantNext {
					t.Logf("seed %d: route(%s, %s) first hop %q, want %q", seed, a, b, gotNext, wantNext)
					return false
				}
				if path, ok := p.shortestPath(a, b); ok != reach || len(path) != wantHops || (reach && a != b && path[0] != wantNext) {
					t.Logf("seed %d: walk %s→%s = %v, ok=%v; want %d hops via %q", seed, a, b, path, ok, wantHops, wantNext)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func nodeID(n *simnet.Node) simnet.NodeID {
	if n == nil {
		return ""
	}
	return n.ID()
}

// BenchmarkFinderTour measures SM-FINDER rounds on a churning grid of 300
// sharded nodes: before each round a few nodes leave or rejoin the ad hoc
// network (as fleet churn does, between events), then one finder discovers
// up to four providers within three hops, tours them and returns home.
func BenchmarkFinderTour(b *testing.B) {
	const cols, rows, spacing = 20, 15, 40.0
	clk := vclock.NewSimulator()
	nw := simnet.New(clk)
	if err := nw.EnableSharding(8); err != nil {
		b.Fatal(err)
	}
	nw.SetRange(radio.MediumWiFi, 50) // four grid neighbours each
	p := NewPlatform(nw, 1)
	var rts []*Runtime
	for i := 0; i < cols*rows; i++ {
		id := simnet.NodeID(fmt.Sprintf("g%03d", i))
		pos := simnet.Position{X: float64(i%cols) * spacing, Y: float64(i/cols) * spacing}
		if _, err := nw.AddNode(id, pos); err != nil {
			b.Fatal(err)
		}
		rt, err := p.Install(id, Admission{})
		if err != nil {
			b.Fatal(err)
		}
		if i%4 == 0 {
			rt.Tags().Update(Tag{Name: "temperature", Value: float64(i)})
		}
		rts = append(rts, rt)
	}
	rng := rand.New(rand.NewSource(9))
	spec := FinderSpec{TagName: "temperature", MaxHops: 3, MaxNodes: 4, Timeout: time.Minute}
	answered := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 4; k++ {
			if rt := rts[rng.Intn(len(rts))]; rt.Participating() {
				rt.Leave()
			} else {
				rt.Join()
			}
		}
		origin := rts[rng.Intn(len(rts))]
		origin.Join()
		if err := p.LaunchFinder(origin.Node().ID(), spec, func(rs []Result, err error) {
			if err == nil {
				answered++
			}
		}); err != nil {
			b.Fatal(err)
		}
		clk.Run(0)
	}
	b.ReportMetric(float64(answered)/float64(b.N), "answered/op")
}
