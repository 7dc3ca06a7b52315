package fuego

import (
	"errors"
	"strings"
	"testing"
	"time"

	"contory/internal/energy"
	"contory/internal/radio"
	"contory/internal/simnet"
	"contory/internal/vclock"
)

// rig builds a phone + infrastructure server connected over UMTS.
func rig(t *testing.T) (*simnet.Network, *vclock.Simulator, *Server, *Client) {
	t.Helper()
	clk := vclock.NewSimulator()
	nw := simnet.New(clk)
	for _, id := range []simnet.NodeID{"phone", "infra"} {
		if _, err := nw.AddNode(id, simnet.Position{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.Connect("phone", "infra", radio.MediumUMTS); err != nil {
		t.Fatal(err)
	}
	u := radio.NewUMTS(42)
	srv, err := NewServer(nw, "infra", u)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(nw, "phone", "infra", u)
	if err != nil {
		t.Fatal(err)
	}
	return nw, clk, srv, cli
}

func TestNewServerUnknownNode(t *testing.T) {
	clk := vclock.NewSimulator()
	nw := simnet.New(clk)
	if _, err := NewServer(nw, "ghost", radio.NewUMTS(1)); err == nil {
		t.Fatal("NewServer(ghost) succeeded")
	}
	if _, err := NewClient(nw, "ghost", "infra", radio.NewUMTS(1)); err == nil {
		t.Fatal("NewClient(ghost) succeeded")
	}
}

func TestSubscribePublishNotify(t *testing.T) {
	nw, clk, srv, cli := rig(t)
	// A second phone subscribes and receives what the first publishes.
	if _, err := nw.AddNode("phone2", simnet.Position{}); err != nil {
		t.Fatal(err)
	}
	if err := nw.Connect("phone2", "infra", radio.MediumUMTS); err != nil {
		t.Fatal(err)
	}
	cli2, err := NewClient(nw, "phone2", "infra", radio.NewUMTS(7))
	if err != nil {
		t.Fatal(err)
	}
	var got []Notification
	if _, err := cli2.Subscribe("weather", func(n Notification) { got = append(got, n) }); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second) // let the subscription reach the server
	if subs := srv.Subscribers("weather"); len(subs) != 1 || subs[0] != "phone2" {
		t.Fatalf("Subscribers = %v", subs)
	}
	if _, err := cli.Publish("weather", "sunny"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Second)
	if len(got) != 1 || got[0].Payload != "sunny" || got[0].Channel != "weather" {
		t.Fatalf("notifications = %+v", got)
	}
	if got[0].At.IsZero() {
		t.Fatal("notification missing delivery time")
	}
	if got[0].WireSize() != 1696 {
		t.Fatalf("WireSize = %d", got[0].WireSize())
	}
	if srv.Events() != 1 {
		t.Fatalf("Events = %d", srv.Events())
	}
}

func TestPublisherDoesNotSelfNotify(t *testing.T) {
	_, clk, _, cli := rig(t)
	notified := 0
	if _, err := cli.Subscribe("ch", func(Notification) { notified++ }); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	if _, err := cli.Publish("ch", "x"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Second)
	if notified != 0 {
		t.Fatalf("publisher received its own event %d times", notified)
	}
}

func TestUnsubscribeStopsNotifications(t *testing.T) {
	nw, clk, _, cli := rig(t)
	if _, err := nw.AddNode("phone2", simnet.Position{}); err != nil {
		t.Fatal(err)
	}
	if err := nw.Connect("phone2", "infra", radio.MediumUMTS); err != nil {
		t.Fatal(err)
	}
	cli2, err := NewClient(nw, "phone2", "infra", radio.NewUMTS(7))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	unsubscribe, err := cli2.Subscribe("ch", func(Notification) { count++ })
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	if err := unsubscribe(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	if _, err := cli.Publish("ch", "x"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Second)
	if count != 0 {
		t.Fatalf("received %d notifications after unsubscribe", count)
	}
}

// TestSharedChannelSubscriptions: two handlers registered on one channel
// of one phone share its subscription. Both receive every notification,
// in registration order, and the radio wakes once per notification.
// Cancelling the first keeps the phone subscribed for the second;
// cancelling the last unsubscribes it, and a second cancel is a no-op.
func TestSharedChannelSubscriptions(t *testing.T) {
	nw, clk, srv, cli := rig(t)
	if _, err := nw.AddNode("phone2", simnet.Position{}); err != nil {
		t.Fatal(err)
	}
	if err := nw.Connect("phone2", "infra", radio.MediumUMTS); err != nil {
		t.Fatal(err)
	}
	cli2, err := NewClient(nw, "phone2", "infra", radio.NewUMTS(7))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	first, err := cli2.Subscribe("ch", func(n Notification) { got = append(got, "first:"+n.Payload.(string)) })
	if err != nil {
		t.Fatal(err)
	}
	second, err := cli2.Subscribe("ch", func(n Notification) { got = append(got, "second:"+n.Payload.(string)) })
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	if subs := srv.Subscribers("ch"); len(subs) != 1 || subs[0] != "phone2" {
		t.Fatalf("Subscribers = %v", subs)
	}
	publish := func(v string) {
		t.Helper()
		if _, err := cli.Publish("ch", v); err != nil {
			t.Fatal(err)
		}
		clk.Advance(10 * time.Second)
	}
	publish("a")
	if want := []string{"first:a", "second:a"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("notifications = %v, want %v", got, want)
	}
	if n := nw.Node("phone2").Timeline().WindowEnergy("umts-notify"); n <= 0 {
		t.Fatal("notification charged no radio wake-up")
	} else if wake := float64(radio.UMTSTransferPower) / 1000 * 0.5; float64(n) != wake {
		t.Fatalf("umts-notify energy %v J, want one wake-up, %v J", n, wake)
	}
	if err := first(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	if subs := srv.Subscribers("ch"); len(subs) != 1 {
		t.Fatalf("Subscribers after cancelling one of two = %v", subs)
	}
	publish("b")
	if want := "first:a,second:a,second:b"; strings.Join(got, ",") != want {
		t.Fatalf("notifications = %v, want %v", got, want)
	}
	if err := second(); err != nil {
		t.Fatal(err)
	}
	if err := second(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	if subs := srv.Subscribers("ch"); len(subs) != 0 {
		t.Fatalf("Subscribers after cancelling both = %v", subs)
	}
	publish("c")
	if len(got) != 3 {
		t.Fatalf("notifications after cancelling both: %v", got)
	}
}

func TestRequestReply(t *testing.T) {
	_, clk, srv, cli := rig(t)
	srv.HandleRequest("echo", func(r Request) (any, error) {
		return r.Payload, nil
	})
	var reply any
	var rerr error
	start := clk.Now()
	var doneAt time.Time
	err := cli.Request("echo", "hello", 0, func(v any, err error) {
		reply, rerr = v, err
		doneAt = clk.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.Run(0)
	if rerr != nil || reply != "hello" {
		t.Fatalf("reply = %v, %v", reply, rerr)
	}
	rtt := doneAt.Sub(start)
	// Table 1: UMTS on-demand get ∈ [703 ms, 2766 ms].
	if rtt < radio.UMTSGetLatencyMin || rtt > radio.UMTSGetLatencyMax {
		t.Fatalf("round trip = %v, outside the paper's range", rtt)
	}
}

// A request completed by its reply or by a send failure stops its timeout:
// nothing stays on the clock to fire later as a no-op, and the callback runs
// once.
func TestCompletedRequestLeavesNoTimer(t *testing.T) {
	nw, clk, srv, cli := rig(t)
	srv.HandleRequest("echo", func(r Request) (any, error) { return r.Payload, nil })
	calls := 0
	if err := cli.Request("echo", "x", 0, func(any, error) { calls++ }); err != nil {
		t.Fatal(err)
	}
	// The reply lands within the worst-case round trip, well before the
	// default timeout of twice that.
	clk.Advance(radio.UMTSGetLatencyMax)
	if calls != 1 {
		t.Fatalf("answered request: %d callbacks, want 1", calls)
	}
	if n := clk.Pending(); n != 0 {
		t.Fatalf("answered request left %d events on the clock, want 0", n)
	}
	nw.Disconnect("phone", "infra", radio.MediumUMTS)
	if err := cli.Request("echo", "x", 0, func(any, error) { calls++ }); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("failed send: %d callbacks in all, want 2", calls)
	}
	if n := clk.Pending(); n != 0 {
		t.Fatalf("failed send left %d events on the clock, want 0", n)
	}
}

func TestRequestNoHandler(t *testing.T) {
	_, clk, _, cli := rig(t)
	var rerr error
	err := cli.Request("missing", nil, 0, func(_ any, err error) { rerr = err })
	if err != nil {
		t.Fatal(err)
	}
	clk.Run(0)
	if rerr == nil || !strings.Contains(rerr.Error(), "no request handler") {
		t.Fatalf("err = %v", rerr)
	}
}

func TestRequestHandlerError(t *testing.T) {
	_, clk, srv, cli := rig(t)
	srv.HandleRequest("boom", func(Request) (any, error) {
		return nil, errors.New("kaput")
	})
	var rerr error
	if err := cli.Request("boom", nil, 0, func(_ any, err error) { rerr = err }); err != nil {
		t.Fatal(err)
	}
	clk.Run(0)
	if rerr == nil || rerr.Error() != "kaput" {
		t.Fatalf("err = %v", rerr)
	}
}

func TestRequestTimeoutOnPartition(t *testing.T) {
	nw, clk, srv, cli := rig(t)
	srv.HandleRequest("echo", func(r Request) (any, error) { return r.Payload, nil })
	// 2G/3G handover switches the phone off the network mid-request.
	var rerr error
	if err := cli.Request("echo", "x", 3*time.Second, func(_ any, err error) { rerr = err }); err != nil {
		t.Fatal(err)
	}
	nw.FailLink("phone", "infra", radio.MediumUMTS)
	clk.Run(0)
	if !errors.Is(rerr, ErrRequestTimeout) {
		t.Fatalf("err = %v, want timeout", rerr)
	}
}

func TestRequestImmediateFailureWhenUnlinked(t *testing.T) {
	nw, clk, _, cli := rig(t)
	nw.Disconnect("phone", "infra", radio.MediumUMTS)
	var rerr error
	if err := cli.Request("echo", "x", time.Minute, func(_ any, err error) { rerr = err }); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rerr, ErrNoServer) {
		t.Fatalf("err = %v, want ErrNoServer", rerr)
	}
	clk.Run(0) // timeout must not double-fire the callback
}

func TestPublishFailsWhenUnlinked(t *testing.T) {
	nw, _, _, cli := rig(t)
	nw.Disconnect("phone", "infra", radio.MediumUMTS)
	if _, err := cli.Publish("ch", "x"); !errors.Is(err, ErrNoServer) {
		t.Fatalf("err = %v", err)
	}
}

func TestRequestEnergyMatchesTable2(t *testing.T) {
	_, clk, srv, cli := rig(t)
	srv.HandleRequest("get", func(Request) (any, error) { return 14.0, nil })
	var drawn energy.Interval
	cli.Node().Timeline().Open(&drawn)
	done := false
	if err := cli.Request("get", nil, 0, func(any, error) { done = true }); err != nil {
		t.Fatal(err)
	}
	clk.Run(0)
	if !done {
		t.Fatal("request incomplete")
	}
	clk.Advance(30 * time.Second) // let the radio tail finish
	e := float64(drawn.Close())
	// Table 2: extInfra on-demand getCxtItem ≈ 14.076 J.
	if e < 11 || e > 17 {
		t.Fatalf("request energy = %v J, want ≈ 14 J", e)
	}
}

func TestEnvelopeRoundTripAndSize(t *testing.T) {
	at := time.Date(2005, 6, 10, 12, 0, 0, 0, time.UTC)
	raw, err := EncodeEnvelope("weather", "temperature", "14.0", at)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 1696 {
		t.Fatalf("envelope size = %d, want 1696", len(raw))
	}
	env, err := DecodeEnvelope(raw)
	if err != nil {
		t.Fatal(err)
	}
	if env.Channel != "weather" || env.Type != "temperature" || env.Value != "14.0" {
		t.Fatalf("env = %+v", env)
	}
	if _, err := DecodeEnvelope([]byte("not xml")); err == nil {
		t.Fatal("DecodeEnvelope(garbage) succeeded")
	}
}
