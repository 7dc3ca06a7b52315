package sm

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"contory/internal/energy"
	"contory/internal/radio"
	"contory/internal/simnet"
	"contory/internal/vclock"
)

func TestTagSpaceCRUD(t *testing.T) {
	clk := vclock.NewSimulator()
	ts := NewTagSpace(clk)
	if err := ts.Create(Tag{Name: "temperature", Value: 14.0, Owner: "app"}); err != nil {
		t.Fatal(err)
	}
	if err := ts.Create(Tag{Name: "temperature"}); !errors.Is(err, ErrTagExists) {
		t.Fatalf("duplicate Create = %v", err)
	}
	tag, err := ts.Read("temperature")
	if err != nil || tag.Value != 14.0 {
		t.Fatalf("Read = %+v, %v", tag, err)
	}
	if !tag.Created.Equal(vclock.Epoch) {
		t.Fatalf("Created = %v", tag.Created)
	}
	ts.Update(Tag{Name: "temperature", Value: 15.0})
	tag, _ = ts.Read("temperature")
	if tag.Value != 15.0 {
		t.Fatalf("after Update = %v", tag.Value)
	}
	if !ts.Has("temperature") || ts.Has("wind") {
		t.Fatal("Has broken")
	}
	ts.Delete("temperature")
	if _, err := ts.Read("temperature"); !errors.Is(err, ErrTagNotFound) {
		t.Fatalf("Read after Delete = %v", err)
	}
	ts.Delete("temperature") // idempotent
}

func TestTagSpaceExpiry(t *testing.T) {
	clk := vclock.NewSimulator()
	ts := NewTagSpace(clk)
	if err := ts.Create(Tag{Name: "temp", Value: 1, Lifetime: 10 * time.Second}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	if !ts.Has("temp") {
		t.Fatal("expired early")
	}
	clk.Advance(6 * time.Second)
	if ts.Has("temp") {
		t.Fatal("did not expire")
	}
	if ts.Len() != 0 {
		t.Fatalf("Len = %d", ts.Len())
	}
	// Re-creating after expiry succeeds.
	if err := ts.Create(Tag{Name: "temp", Value: 2}); err != nil {
		t.Fatalf("re-Create: %v", err)
	}
}

func TestTagSpaceNamesSorted(t *testing.T) {
	clk := vclock.NewSimulator()
	ts := NewTagSpace(clk)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if err := ts.Create(Tag{Name: n}); err != nil {
			t.Fatal(err)
		}
	}
	names := ts.Names()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v", names)
		}
	}
}

// line builds the paper's 2-hop testbed: origin—relay—far, all SM
// participants, with a tag published at the far end.
func line(t *testing.T) (*Platform, *vclock.Simulator, *simnet.Network) {
	t.Helper()
	clk := vclock.NewSimulator()
	nw := simnet.New(clk)
	for _, id := range []simnet.NodeID{"origin", "relay", "far"} {
		if _, err := nw.AddNode(id, simnet.Position{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, pair := range [][2]simnet.NodeID{{"origin", "relay"}, {"relay", "far"}} {
		if err := nw.Connect(pair[0], pair[1], radio.MediumWiFi); err != nil {
			t.Fatal(err)
		}
	}
	p := NewPlatform(nw, 1)
	for _, id := range []simnet.NodeID{"origin", "relay", "far"} {
		if _, err := p.Install(id, Admission{}); err != nil {
			t.Fatal(err)
		}
	}
	return p, clk, nw
}

func TestInstallUnknownNode(t *testing.T) {
	clk := vclock.NewSimulator()
	nw := simnet.New(clk)
	p := NewPlatform(nw, 1)
	if _, err := p.Install("ghost", Admission{}); err == nil {
		t.Fatal("Install(ghost) succeeded")
	}
}

func TestParticipationTagOnInstall(t *testing.T) {
	p, _, _ := line(t)
	rt := p.Runtime("relay")
	if !rt.Participating() {
		t.Fatal("installed runtime not participating")
	}
	rt.Leave()
	if rt.Participating() {
		t.Fatal("still participating after Leave")
	}
	rt.Join()
	if !rt.Participating() {
		t.Fatal("not participating after Join")
	}
}

func TestFinderOneHop(t *testing.T) {
	p, clk, _ := line(t)
	p.Runtime("relay").Tags().Update(Tag{Name: "temperature", Value: 14.0})
	var results []Result
	var ferr error
	done := false
	err := p.LaunchFinder("origin", FinderSpec{TagName: "temperature", MaxHops: 1}, func(rs []Result, err error) {
		results, ferr, done = rs, err, true
	})
	if err != nil {
		t.Fatal(err)
	}
	start := clk.Now()
	clk.Run(0)
	if !done {
		t.Fatal("finder never completed")
	}
	if ferr != nil {
		t.Fatalf("finder error: %v", ferr)
	}
	if len(results) != 1 || results[0].Value != 14.0 || results[0].Node != "relay" || results[0].HopCnt != 1 {
		t.Fatalf("results = %+v", results)
	}
	// Round-trip latency ≈ 761 ms (Table 1, one hop).
	elapsed := results[0].At.Sub(start)
	_ = elapsed // collection happens at ~half the round trip
}

func TestFinderTwoHopLatency(t *testing.T) {
	p, clk, _ := line(t)
	p.Runtime("far").Tags().Update(Tag{Name: "temperature", Value: 20.0})
	var doneAt time.Time
	err := p.LaunchFinder("origin", FinderSpec{TagName: "temperature", MaxHops: 2}, func(rs []Result, err error) {
		if err != nil || len(rs) != 1 {
			t.Errorf("finder: %v %v", rs, err)
			return
		}
		doneAt = clk.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	start := clk.Now()
	clk.Run(0)
	if doneAt.IsZero() {
		t.Fatal("finder never completed")
	}
	total := doneAt.Sub(start)
	// Table 1: two-hop getCxtItem ≈ 1422.5 ms; allow jitter.
	if total < 1100*time.Millisecond || total > 1800*time.Millisecond {
		t.Fatalf("2-hop finder latency = %v, want ≈ 1422 ms", total)
	}
}

func TestFinderHopCntDiscard(t *testing.T) {
	p, clk, _ := line(t)
	// Publisher is 2 hops away but the query allows only 1 hop: discovery
	// must skip it (and any result collected farther would be discarded).
	p.Runtime("far").Tags().Update(Tag{Name: "temperature", Value: 20.0})
	var results []Result
	var ferr error
	err := p.LaunchFinder("origin", FinderSpec{TagName: "temperature", MaxHops: 1, Timeout: 10 * time.Second},
		func(rs []Result, err error) { results, ferr = rs, err })
	if err != nil {
		t.Fatal(err)
	}
	clk.Run(0)
	if !errors.Is(ferr, ErrFinderTimeout) {
		t.Fatalf("err = %v (results %v), want timeout (no provider in range)", ferr, results)
	}
}

func TestFinderPinnedTargetsHopFilter(t *testing.T) {
	p, clk, _ := line(t)
	p.Runtime("far").Tags().Update(Tag{Name: "temperature", Value: 20.0})
	// Pin the far node explicitly but allow only 1 hop: the result is
	// collected (hopCnt=2) and then discarded at the receiver.
	var results []Result
	var ferr error
	err := p.LaunchFinder("origin", FinderSpec{
		TagName: "temperature", MaxHops: 1,
		Targets: []simnet.NodeID{"far"},
		Timeout: time.Minute,
	}, func(rs []Result, err error) { results, ferr = rs, err })
	if err != nil {
		t.Fatal(err)
	}
	clk.Run(0)
	if ferr != nil {
		t.Fatalf("finder err: %v", ferr)
	}
	if len(results) != 0 {
		t.Fatalf("results = %+v, want all discarded by hopCnt check", results)
	}
}

// The finder consumes its visit plan as it tours; a pinned list is the
// caller's, and a retry relaunches the same spec, so it must come back
// unchanged and visit every target again.
func TestFinderKeepsPinnedTargets(t *testing.T) {
	p, clk, _ := line(t)
	p.Runtime("relay").Tags().Update(Tag{Name: "temperature", Value: 14.0})
	p.Runtime("far").Tags().Update(Tag{Name: "temperature", Value: 20.0})
	spec := FinderSpec{
		TagName: "temperature", MaxHops: 3,
		Targets: []simnet.NodeID{"relay", "far"},
		Timeout: time.Minute,
	}
	for round := 1; round <= 2; round++ {
		var results []Result
		if err := p.LaunchFinder("origin", spec, func(rs []Result, err error) { results = rs }); err != nil {
			t.Fatal(err)
		}
		clk.Run(0)
		if got := spec.Targets; len(got) != 2 || got[0] != "relay" || got[1] != "far" {
			t.Fatalf("round %d: caller's Targets = %v, want [relay far]", round, got)
		}
		if len(results) != 2 || results[0].Node != "relay" || results[1].Node != "far" {
			t.Fatalf("round %d: results = %+v, want relay then far", round, results)
		}
	}
}

func TestFinderMultiNode(t *testing.T) {
	p, clk, _ := line(t)
	p.Runtime("relay").Tags().Update(Tag{Name: "temperature", Value: 14.0})
	p.Runtime("far").Tags().Update(Tag{Name: "temperature", Value: 20.0})
	var results []Result
	err := p.LaunchFinder("origin", FinderSpec{TagName: "temperature", MaxHops: 3},
		func(rs []Result, err error) {
			if err != nil {
				t.Errorf("finder: %v", err)
			}
			results = rs
		})
	if err != nil {
		t.Fatal(err)
	}
	clk.Run(0)
	if len(results) != 2 {
		t.Fatalf("results = %+v, want 2", results)
	}
	// Nearest-first visiting order.
	if results[0].Node != "relay" || results[1].Node != "far" {
		t.Fatalf("visit order = %v, %v", results[0].Node, results[1].Node)
	}
}

func TestFinderMaxNodes(t *testing.T) {
	p, clk, _ := line(t)
	p.Runtime("relay").Tags().Update(Tag{Name: "temperature", Value: 14.0})
	p.Runtime("far").Tags().Update(Tag{Name: "temperature", Value: 20.0})
	var results []Result
	err := p.LaunchFinder("origin", FinderSpec{TagName: "temperature", MaxHops: 3, MaxNodes: 1},
		func(rs []Result, err error) { results = rs })
	if err != nil {
		t.Fatal(err)
	}
	clk.Run(0)
	if len(results) != 1 || results[0].Node != "relay" {
		t.Fatalf("results = %+v, want just the nearest node", results)
	}
}

func TestFinderFilter(t *testing.T) {
	p, clk, _ := line(t)
	p.Runtime("relay").Tags().Update(Tag{Name: "temperature", Value: 14.0})
	p.Runtime("far").Tags().Update(Tag{Name: "temperature", Value: 30.0})
	var results []Result
	err := p.LaunchFinder("origin", FinderSpec{
		TagName: "temperature", MaxHops: 3,
		Filter: func(v any) bool {
			f, ok := v.(float64)
			return ok && f > 25
		},
	}, func(rs []Result, err error) { results = rs })
	if err != nil {
		t.Fatal(err)
	}
	clk.Run(0)
	if len(results) != 1 || results[0].Value != 30.0 {
		t.Fatalf("results = %+v", results)
	}
}

func TestFinderTimeoutOnNoProviders(t *testing.T) {
	p, clk, _ := line(t)
	var ferr error
	err := p.LaunchFinder("origin", FinderSpec{TagName: "nothing", MaxHops: 3, Timeout: 5 * time.Second},
		func(rs []Result, err error) { ferr = err })
	if err != nil {
		t.Fatal(err)
	}
	clk.Run(0)
	if !errors.Is(ferr, ErrFinderTimeout) {
		t.Fatalf("err = %v, want timeout", ferr)
	}
}

func TestFinderPartitionMidFlight(t *testing.T) {
	p, clk, nw := line(t)
	p.Runtime("far").Tags().Update(Tag{Name: "temperature", Value: 20.0})
	var ferr error
	called := false
	err := p.LaunchFinder("origin", FinderSpec{TagName: "temperature", MaxHops: 2, Timeout: 20 * time.Second},
		func(rs []Result, err error) { called, ferr = true, err })
	if err != nil {
		t.Fatal(err)
	}
	// Cut the relay link while the SM is in flight.
	clk.Advance(300 * time.Millisecond)
	nw.FailLink("relay", "far", radio.MediumWiFi)
	nw.FailLink("origin", "relay", radio.MediumWiFi)
	clk.Run(0)
	if !called || !errors.Is(ferr, ErrFinderTimeout) {
		t.Fatalf("called=%v err=%v, want timeout after partition", called, ferr)
	}
}

func TestFinderNonParticipantOrigin(t *testing.T) {
	p, _, _ := line(t)
	p.Runtime("origin").Leave()
	err := p.LaunchFinder("origin", FinderSpec{TagName: "x"}, func([]Result, error) {})
	if !errors.Is(err, ErrNotParticipnt) {
		t.Fatalf("err = %v", err)
	}
	if err := p.LaunchFinder("ghost", FinderSpec{}, func([]Result, error) {}); !errors.Is(err, ErrNoRuntime) {
		t.Fatalf("ghost err = %v", err)
	}
}

func TestRoutingSkipsNonParticipants(t *testing.T) {
	p, clk, _ := line(t)
	p.Runtime("far").Tags().Update(Tag{Name: "temperature", Value: 20.0})
	// The relay stops participating: only route origin→relay→far exists,
	// so the finder must time out.
	p.Runtime("relay").Leave()
	var ferr error
	err := p.LaunchFinder("origin", FinderSpec{TagName: "temperature", MaxHops: 3, Timeout: 15 * time.Second},
		func(rs []Result, err error) { ferr = err })
	if err != nil {
		t.Fatal(err)
	}
	clk.Run(0)
	if !errors.Is(ferr, ErrFinderTimeout) {
		t.Fatalf("err = %v, want timeout (relay left the contory network)", ferr)
	}
}

func TestAdmissionHopCap(t *testing.T) {
	clk := vclock.NewSimulator()
	nw := simnet.New(clk)
	if _, err := nw.AddNode("n", simnet.Position{}); err != nil {
		t.Fatal(err)
	}
	p := NewPlatform(nw, 1)
	rt, err := p.Install("n", Admission{MaxHopCnt: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.admit(&Message{HopCnt: 3}); !errors.Is(err, ErrAdmission) {
		t.Fatalf("admit over-hop SM: %v", err)
	}
	if err := rt.admit(&Message{HopCnt: 1}); err != nil {
		t.Fatalf("admit: %v", err)
	}
	acc, rej := rt.Stats()
	if acc != 1 || rej != 1 {
		t.Fatalf("stats = %d/%d", acc, rej)
	}
}

func TestAdmissionResidentCap(t *testing.T) {
	clk := vclock.NewSimulator()
	nw := simnet.New(clk)
	if _, err := nw.AddNode("n", simnet.Position{}); err != nil {
		t.Fatal(err)
	}
	p := NewPlatform(nw, 1)
	rt, err := p.Install("n", Admission{MaxResident: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.admit(&Message{}); err != nil {
		t.Fatal(err)
	}
	if err := rt.admit(&Message{}); !errors.Is(err, ErrAdmission) {
		t.Fatalf("second resident admitted: %v", err)
	}
	rt.release()
	if err := rt.admit(&Message{}); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
}

func TestCodeCache(t *testing.T) {
	p, _, _ := line(t)
	rt := p.Runtime("relay")
	if rt.cacheCode("finder-v1") {
		t.Fatal("cold cache reported hit")
	}
	if !rt.cacheCode("finder-v1") {
		t.Fatal("warm cache reported miss")
	}
	// A cold code cache adds code transfer/deserialization to the hop;
	// average over many draws to see past per-hop jitter.
	var cold, warm time.Duration
	m := &Message{ID: "sm-test"}
	for i := 0; i < 200; i++ {
		cold += p.hopLatency(m, false, false, false)
		warm += p.hopLatency(m, false, false, true)
	}
	if warm >= cold {
		t.Fatalf("warm hops %v not faster than cold %v", warm/200, cold/200)
	}
}

func TestCustomCodeBrick(t *testing.T) {
	p, clk, _ := line(t)
	executed := make(map[simnet.NodeID]bool)
	p.RegisterCode("visit", func(rt *Runtime, m *Message) {
		executed[rt.Node().ID()] = true
	})
	m := &Message{ID: "m1", CodeID: "visit", Origin: "origin", Data: map[string]any{}}
	if err := p.migrate(m, nil, "origin", "relay", true, false); err != nil {
		t.Fatal(err)
	}
	clk.Run(0)
	if !executed["relay"] {
		t.Fatal("custom code brick did not run on relay")
	}
	if m.HopCnt != 1 {
		t.Fatalf("HopCnt = %d", m.HopCnt)
	}
}

func TestFinderRequesterEnergyMatchesTable2(t *testing.T) {
	p, clk, nw := line(t)
	p.Runtime("relay").Tags().Update(Tag{Name: "temperature", Value: 14.0})
	origin := nw.Node("origin")
	var drawn energy.Interval
	origin.Timeline().Open(&drawn)
	var doneAt time.Time
	err := p.LaunchFinder("origin", FinderSpec{TagName: "temperature", MaxHops: 1},
		func(rs []Result, err error) {
			drawn.Close()
			doneAt = clk.Now()
		})
	if err != nil {
		t.Fatal(err)
	}
	clk.Run(0)
	if doneAt.IsZero() {
		t.Fatal("finder did not finish")
	}
	e := float64(drawn.Joules())
	// Table 2: WiFi one-hop periodic get > 0.906 J (1190 mW × latency).
	if e < 0.7 || e > 1.3 {
		t.Fatalf("requester energy = %v J, want ≈ 0.906 J", e)
	}
	// Radio must be released after completion.
	clk.Advance(time.Second)
	if p := origin.Timeline().Power(); p != 0 {
		t.Fatalf("origin still drawing %v mW after finder completed", p)
	}
}

// Property: over random participant topologies, every delivered finder
// result respects the query's numHops bound.
func TestFinderHopBoundProperty(t *testing.T) {
	prop := func(seed int64, nNodes, nLinks, maxHops uint8) bool {
		clk := vclock.NewSimulator()
		nw := simnet.New(clk)
		rng := rand.New(rand.NewSource(seed))
		n := int(nNodes%6) + 3
		ids := make([]simnet.NodeID, n)
		for i := 0; i < n; i++ {
			ids[i] = simnet.NodeID(fmt.Sprintf("n%d", i))
			if _, err := nw.AddNode(ids[i], simnet.Position{}); err != nil {
				return false
			}
		}
		// Random extra links over a guaranteed line (connectivity).
		for i := 1; i < n; i++ {
			if err := nw.Connect(ids[i-1], ids[i], radio.MediumWiFi); err != nil {
				return false
			}
		}
		for l := 0; l < int(nLinks%10); l++ {
			a, b := ids[rng.Intn(n)], ids[rng.Intn(n)]
			if a != b {
				_ = nw.Connect(a, b, radio.MediumWiFi)
			}
		}
		p := NewPlatform(nw, seed)
		for _, id := range ids {
			if _, err := p.Install(id, Admission{}); err != nil {
				return false
			}
		}
		// Everyone but the origin publishes the tag.
		for _, id := range ids[1:] {
			p.Runtime(id).Tags().Update(Tag{Name: "temperature", Value: 1.0})
		}
		hops := int(maxHops%4) + 1
		var results []Result
		err := p.LaunchFinder(ids[0], FinderSpec{
			TagName: "temperature", MaxHops: hops, Timeout: time.Hour,
		}, func(rs []Result, err error) { results = rs })
		if err != nil {
			return false
		}
		clk.Run(0)
		for _, r := range results {
			if r.HopCnt > hops {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFinderRadioMatchesPerFinderStates: one finder-radio state per node,
// at WiFiConnectedPower per running finder, integrates to the same float
// as one state per finder would: two overlapping finders, one ending at
// the instant another starts (in both orders), and one that starts and
// finishes at the same instant. The oracle timeline sets a fresh state
// per finder, as LaunchFinder did.
func TestFinderRadioMatchesPerFinderStates(t *testing.T) {
	p, clk, nw := line(t)
	rt := p.Runtime("origin")
	tl := nw.Node("origin").Timeline()
	oracle := energy.NewTimeline(clk)
	var got, want [3]energy.Interval
	for _, w := range []*energy.Timeline{tl, oracle} {
		w.SetState("base", energy.BaseIdle)
	}
	wifi := energy.Milliwatts(radio.WiFiConnectedPower)
	start := func(id string) {
		rt.finderRadio(+1)
		oracle.SetState("wifi-finder-"+id, wifi)
	}
	finish := func(id string) {
		rt.finderRadio(-1)
		oracle.SetState("wifi-finder-"+id, 0)
	}
	step := func(d time.Duration) {
		for _, w := range []*energy.Timeline{tl, oracle} {
			w.AddWindow("sm-hop", 300, d/3)
		}
		clk.Advance(d)
	}
	tl.Open(&got[0])
	oracle.Open(&want[0])
	start("a")
	step(300 * time.Millisecond)
	start("b")
	if lvl := tl.State(finderPowerState); lvl != 2*wifi {
		t.Fatalf("two finders hold the radio at %v mW, want %v", lvl, 2*wifi)
	}
	tl.Open(&got[1])
	oracle.Open(&want[1])
	step(457 * time.Millisecond)
	finish("a")
	start("c")
	step(333 * time.Millisecond)
	start("d")
	finish("d")
	tl.Open(&got[2])
	oracle.Open(&want[2])
	step(211 * time.Millisecond)
	start("e")
	finish("b")
	step(1013 * time.Millisecond)
	finish("c")
	step(100 * time.Millisecond)
	finish("e")
	if lvl := tl.State(finderPowerState); lvl != 0 {
		t.Fatalf("radio left at %v mW after every finder finished", lvl)
	}
	step(time.Second)
	for i := range got {
		if g, w := got[i].Close(), want[i].Close(); g != w {
			t.Errorf("interval %d: %v J, per-finder states %v J", i, g, w)
		}
	}
	if g, w := tl.Joules(), oracle.Joules(); g != w {
		t.Errorf("timeline: %v J, per-finder states %v J", g, w)
	}
}

// TestConcurrentFindersShareOneRadioState: two finders launched from one
// origin hold its radio at twice WiFiConnectedPower while both run, and
// release it when both are done.
func TestConcurrentFindersShareOneRadioState(t *testing.T) {
	p, clk, nw := line(t)
	p.Runtime("relay").Tags().Update(Tag{Name: "temperature", Value: 14.0})
	tl := nw.Node("origin").Timeline()
	done := 0
	for i := 0; i < 2; i++ {
		if err := p.LaunchFinder("origin", FinderSpec{TagName: "temperature", MaxHops: 1},
			func([]Result, error) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	if lvl, want := tl.State(finderPowerState), 2*energy.Milliwatts(radio.WiFiConnectedPower); lvl != want {
		t.Fatalf("radio at %v mW with two finders running, want %v", lvl, want)
	}
	clk.Run(0)
	if done != 2 {
		t.Fatalf("%d finders finished, want 2", done)
	}
	if lvl := tl.State(finderPowerState); lvl != 0 {
		t.Fatalf("radio at %v mW after both finders, want 0", lvl)
	}
}
