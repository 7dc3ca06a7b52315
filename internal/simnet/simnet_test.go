package simnet

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"contory/internal/radio"
	"contory/internal/vclock"
)

func newNet(t *testing.T, ids ...NodeID) (*Network, *vclock.Simulator) {
	t.Helper()
	clk := vclock.NewSimulator()
	nw := New(clk)
	for _, id := range ids {
		if _, err := nw.AddNode(id, Position{}); err != nil {
			t.Fatalf("AddNode(%s): %v", id, err)
		}
	}
	return nw, clk
}

func TestAddNodeDuplicate(t *testing.T) {
	nw, _ := newNet(t, "a")
	if _, err := nw.AddNode("a", Position{}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate AddNode = %v, want ErrDuplicateID", err)
	}
}

func TestNodesSorted(t *testing.T) {
	nw, _ := newNet(t, "c", "a", "b")
	ids := nw.Nodes()
	want := []NodeID{"a", "b", "c"}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("Nodes() = %v, want %v", ids, want)
		}
	}
}

func TestExplicitLink(t *testing.T) {
	nw, _ := newNet(t, "a", "b")
	if nw.Linked("a", "b", radio.MediumBT) {
		t.Fatal("linked before Connect")
	}
	if err := nw.Connect("a", "b", radio.MediumBT); err != nil {
		t.Fatal(err)
	}
	if !nw.Linked("a", "b", radio.MediumBT) || !nw.Linked("b", "a", radio.MediumBT) {
		t.Fatal("link not bidirectional")
	}
	// Other media are unaffected.
	if nw.Linked("a", "b", radio.MediumWiFi) {
		t.Fatal("link leaked to another medium")
	}
	nw.Disconnect("a", "b", radio.MediumBT)
	if nw.Linked("a", "b", radio.MediumBT) {
		t.Fatal("still linked after Disconnect")
	}
}

func TestConnectUnknownNode(t *testing.T) {
	nw, _ := newNet(t, "a")
	if err := nw.Connect("a", "ghost", radio.MediumBT); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Connect to ghost = %v", err)
	}
}

func TestRangeBasedLink(t *testing.T) {
	nw, _ := newNet(t, "a", "b")
	nw.Node("b").SetPosition(Position{X: 30})
	nw.SetRange(radio.MediumWiFi, 50)
	if !nw.Linked("a", "b", radio.MediumWiFi) {
		t.Fatal("not linked within range")
	}
	nw.Node("b").SetPosition(Position{X: 100})
	if nw.Linked("a", "b", radio.MediumWiFi) {
		t.Fatal("linked beyond range")
	}
}

func TestLinkFailureAndRestore(t *testing.T) {
	nw, _ := newNet(t, "a", "b")
	if err := nw.Connect("a", "b", radio.MediumBT); err != nil {
		t.Fatal(err)
	}
	nw.FailLink("a", "b", radio.MediumBT)
	if nw.Linked("a", "b", radio.MediumBT) {
		t.Fatal("linked through failed link")
	}
	nw.RestoreLink("b", "a", radio.MediumBT) // order-insensitive key
	if !nw.Linked("a", "b", radio.MediumBT) {
		t.Fatal("not linked after restore")
	}
}

func TestNodeDownBreaksLinks(t *testing.T) {
	nw, _ := newNet(t, "a", "b")
	if err := nw.Connect("a", "b", radio.MediumBT); err != nil {
		t.Fatal(err)
	}
	nw.Node("b").SetDown(true)
	if nw.Linked("a", "b", radio.MediumBT) {
		t.Fatal("linked to down node")
	}
	nw.Node("b").SetDown(false)
	if !nw.Linked("a", "b", radio.MediumBT) {
		t.Fatal("not linked after recovery")
	}
}

func TestRadioOffBreaksLinks(t *testing.T) {
	nw, _ := newNet(t, "a", "b")
	if err := nw.Connect("a", "b", radio.MediumWiFi); err != nil {
		t.Fatal(err)
	}
	nw.Node("b").SetRadio(radio.MediumWiFi, false)
	if nw.Linked("a", "b", radio.MediumWiFi) {
		t.Fatal("linked with radio off")
	}
}

func TestSendDelivers(t *testing.T) {
	nw, clk := newNet(t, "a", "b")
	if err := nw.Connect("a", "b", radio.MediumBT); err != nil {
		t.Fatal(err)
	}
	var got Message
	var deliveredAt time.Time
	nw.Node("b").Handle("ping", func(m Message) {
		got = m
		deliveredAt = clk.Now()
	})
	msg := Message{From: "a", To: "b", Medium: radio.MediumBT, Kind: "ping", Payload: 42, Bytes: 10}
	if err := nw.Send(msg, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if got.Payload != 42 {
		t.Fatalf("payload = %v", got.Payload)
	}
	if want := vclock.Epoch.Add(100 * time.Millisecond); !deliveredAt.Equal(want) {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
	if !got.SentAt.Equal(vclock.Epoch) {
		t.Fatalf("SentAt = %v", got.SentAt)
	}
	d, dr := nw.Stats()
	if d != 1 || dr != 0 {
		t.Fatalf("stats = %d/%d", d, dr)
	}
}

func TestSendErrors(t *testing.T) {
	nw, _ := newNet(t, "a", "b")
	msg := func(from, to NodeID) Message {
		return Message{From: from, To: to, Medium: radio.MediumBT, Kind: "k"}
	}
	if err := nw.Send(msg("ghost", "b"), 0); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown sender: %v", err)
	}
	if err := nw.Send(msg("a", "a"), 0); !errors.Is(err, ErrSelfDelivery) {
		t.Errorf("self send: %v", err)
	}
	if err := nw.Send(msg("a", "b"), 0); !errors.Is(err, ErrNotLinked) {
		t.Errorf("unlinked send: %v", err)
	}
	if err := nw.Connect("a", "b", radio.MediumBT); err != nil {
		t.Fatal(err)
	}
	nw.Node("a").SetDown(true)
	if err := nw.Send(msg("a", "b"), 0); !errors.Is(err, ErrNodeDown) {
		t.Errorf("down sender: %v", err)
	}
	nw.Node("a").SetDown(false)
	nw.Node("a").SetRadio(radio.MediumBT, false)
	if err := nw.Send(msg("a", "b"), 0); !errors.Is(err, ErrRadioOff) {
		t.Errorf("radio off: %v", err)
	}
}

func TestInFlightDropOnLinkFailure(t *testing.T) {
	nw, clk := newNet(t, "a", "b")
	if err := nw.Connect("a", "b", radio.MediumBT); err != nil {
		t.Fatal(err)
	}
	delivered := false
	nw.Node("b").Handle("ping", func(Message) { delivered = true })
	err := nw.Send(Message{From: "a", To: "b", Medium: radio.MediumBT, Kind: "ping"}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(500 * time.Millisecond)
	nw.FailLink("a", "b", radio.MediumBT)
	clk.Advance(time.Second)
	if delivered {
		t.Fatal("message delivered over failed link")
	}
	if _, dropped := nw.Stats(); dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
}

func TestDeliveryWithoutHandlerDrops(t *testing.T) {
	nw, clk := newNet(t, "a", "b")
	if err := nw.Connect("a", "b", radio.MediumBT); err != nil {
		t.Fatal(err)
	}
	err := nw.Send(Message{From: "a", To: "b", Medium: radio.MediumBT, Kind: "nope"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if _, dropped := nw.Stats(); dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
}

func TestNeighborsAndHopDistance(t *testing.T) {
	// Line topology a—b—c (the paper's 2-hop communicator arrangement).
	nw, _ := newNet(t, "a", "b", "c")
	for _, pair := range [][2]NodeID{{"a", "b"}, {"b", "c"}} {
		if err := nw.Connect(pair[0], pair[1], radio.MediumWiFi); err != nil {
			t.Fatal(err)
		}
	}
	nbs := nw.Neighbors("b", radio.MediumWiFi)
	if len(nbs) != 2 || nbs[0] != "a" || nbs[1] != "c" {
		t.Fatalf("Neighbors(b) = %v", nbs)
	}
	if next, h, ok := nw.Route("a", "c", radio.MediumWiFi, nil); !ok || h != 2 || next.ID() != "b" {
		t.Fatalf("Route(a,c) = %v, %d, %v", next, h, ok)
	}
	if next, h, ok := nw.Route("a", "a", radio.MediumWiFi, nil); !ok || h != 0 || next != nil {
		t.Fatalf("Route(a,a) = %v, %d, %v", next, h, ok)
	}
	if _, _, ok := nw.Route("a", "c", radio.MediumBT, nil); ok {
		t.Fatal("BT route found without BT links")
	}
	// A relay that refuses to forward cuts the line; an endpoint need not
	// relay.
	b := nw.Node("b").Index()
	notB := func(i int32) bool { return i != b }
	if _, _, ok := nw.Route("a", "c", radio.MediumWiFi, notB); ok {
		t.Fatal("route through a non-relay")
	}
	if _, h, ok := nw.Route("a", "b", radio.MediumWiFi, notB); !ok || h != 1 {
		t.Fatalf("Route(a,b) to a non-relay = %d, %v", h, ok)
	}
}

func TestShortestPath(t *testing.T) {
	nw, _ := newNet(t, "a", "b", "c", "d")
	for _, pair := range [][2]NodeID{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"a", "d"}} {
		if err := nw.Connect(pair[0], pair[1], radio.MediumWiFi); err != nil {
			t.Fatal(err)
		}
	}
	if next, h, ok := nw.Route("a", "d", radio.MediumWiFi, nil); !ok || h != 1 || next.ID() != "d" {
		t.Fatalf("Route(a,d) = %v, %d, %v, want d in 1 hop", next, h, ok)
	}
	nw.FailLink("a", "d", radio.MediumWiFi)
	// Walking the first hops from each node on the way is the path a
	// forwarded message takes: b, c, d.
	var path []NodeID
	for at := NodeID("a"); at != "d"; {
		next, h, ok := nw.Route(at, "d", radio.MediumWiFi, nil)
		if !ok || h != 3-len(path) {
			t.Fatalf("Route(%s,d) = %v, %d, %v after %v", at, next, h, ok, path)
		}
		at = next.ID()
		path = append(path, at)
	}
	if want := []NodeID{"b", "c", "d"}; !slices.Equal(path, want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
}

func TestMobilityIntegration(t *testing.T) {
	nw, clk := newNet(t, "boat")
	n := nw.Node("boat")
	n.SetVelocity(Position{X: 2, Y: 1}) // 2 m/s east, 1 m/s north
	nw.StartMobility(time.Second)
	clk.Advance(10 * time.Second)
	nw.StopMobility()
	pos := n.Position()
	if pos.X != 20 || pos.Y != 10 {
		t.Fatalf("position = %+v, want (20,10)", pos)
	}
	clk.Advance(10 * time.Second)
	if got := n.Position(); got != pos {
		t.Fatalf("moved after StopMobility: %+v", got)
	}
}

func TestMobilityChangesRangeLinks(t *testing.T) {
	nw, clk := newNet(t, "a", "b")
	nw.SetRange(radio.MediumWiFi, 25)
	nw.Node("b").SetPosition(Position{X: 50})
	nw.Node("b").SetVelocity(Position{X: -5}) // approaching at 5 m/s
	nw.StartMobility(time.Second)
	if nw.Linked("a", "b", radio.MediumWiFi) {
		t.Fatal("linked while out of range")
	}
	clk.Advance(6 * time.Second) // b at x=20
	if !nw.Linked("a", "b", radio.MediumWiFi) {
		t.Fatal("not linked after approaching")
	}
}

func TestPositionDistance(t *testing.T) {
	a, b := Position{0, 0}, Position{3, 4}
	if d := a.Distance(b); d != 5 {
		t.Fatalf("Distance = %v, want 5", d)
	}
}

// Property: Linked is symmetric under all link manipulations.
func TestLinkedSymmetryProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		nw, _ := newNet(t, "a", "b")
		m := radio.MediumBT
		for _, op := range ops {
			switch op % 5 {
			case 0:
				_ = nw.Connect("a", "b", m)
			case 1:
				nw.Disconnect("a", "b", m)
			case 2:
				nw.FailLink("a", "b", m)
			case 3:
				nw.RestoreLink("a", "b", m)
			case 4:
				nw.SetRange(m, float64(op))
			}
			if nw.Linked("a", "b", m) != nw.Linked("b", "a", m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeTimelineAndBatteryPresent(t *testing.T) {
	nw, _ := newNet(t, "a")
	n := nw.Node("a")
	if n.Timeline() == nil || n.Battery() == nil {
		t.Fatal("node missing timeline or battery")
	}
	n.Timeline().SetState("base", 10)
	if p := n.Timeline().Power(); p != 10 {
		t.Fatalf("power = %v", p)
	}
}

func TestLossyLinkDropsSome(t *testing.T) {
	nw, clk := newNet(t, "a", "b")
	if err := nw.Connect("a", "b", radio.MediumBT); err != nil {
		t.Fatal(err)
	}
	nw.Seed(7)
	nw.SetLoss("a", "b", radio.MediumBT, 0.5)
	got := 0
	nw.Node("b").Handle("ping", func(Message) { got++ })
	const sent = 200
	for i := 0; i < sent; i++ {
		if err := nw.Send(Message{From: "a", To: "b", Medium: radio.MediumBT, Kind: "ping"}, time.Millisecond); err != nil {
			t.Fatal(err)
		}
		clk.Advance(10 * time.Millisecond)
	}
	if got == 0 || got == sent {
		t.Fatalf("got %d of %d with 50%% loss", got, sent)
	}
	if got < sent/4 || got > 3*sent/4 {
		t.Fatalf("got %d of %d, far from 50%%", got, sent)
	}
	_, dropped := nw.Stats()
	if got+dropped != sent {
		t.Fatalf("delivered %d + dropped %d != sent %d", got, dropped, sent)
	}
}

func TestLossClampAndClear(t *testing.T) {
	nw, clk := newNet(t, "a", "b")
	if err := nw.Connect("a", "b", radio.MediumBT); err != nil {
		t.Fatal(err)
	}
	nw.SetLoss("a", "b", radio.MediumBT, 5) // clamped to 1: everything drops
	got := 0
	nw.Node("b").Handle("ping", func(Message) { got++ })
	for i := 0; i < 10; i++ {
		if err := nw.Send(Message{From: "a", To: "b", Medium: radio.MediumBT, Kind: "ping"}, 0); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(time.Second)
	if got != 0 {
		t.Fatalf("got %d with total loss", got)
	}
	nw.SetLoss("b", "a", radio.MediumBT, 0) // symmetric key clears it
	if err := nw.Send(Message{From: "a", To: "b", Medium: radio.MediumBT, Kind: "ping"}, 0); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if got != 1 {
		t.Fatalf("got %d after clearing loss", got)
	}
}

func TestLossDeterministicPerSeed(t *testing.T) {
	run := func() int {
		nw, clk := newNet(t, "a", "b")
		if err := nw.Connect("a", "b", radio.MediumBT); err != nil {
			t.Fatal(err)
		}
		nw.Seed(42)
		nw.SetLoss("a", "b", radio.MediumBT, 0.3)
		got := 0
		nw.Node("b").Handle("ping", func(Message) { got++ })
		for i := 0; i < 100; i++ {
			if err := nw.Send(Message{From: "a", To: "b", Medium: radio.MediumBT, Kind: "ping"}, 0); err != nil {
				t.Fatal(err)
			}
		}
		clk.Advance(time.Second)
		return got
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different outcomes: %d vs %d", a, b)
	}
}
