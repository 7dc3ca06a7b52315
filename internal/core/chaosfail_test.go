package core

import (
	"strings"
	"testing"
	"time"

	"contory/internal/chaos"
	"contory/internal/cxt"
	"contory/internal/metrics"
	"contory/internal/query"
	"contory/internal/radio"
)

// cancellingClient cancels its own query from inside a middleware callback —
// the reentrancy pattern that used to race Subscription.Cancel against
// reassignAffected's switchQuery.
type cancellingClient struct {
	factory     *Factory
	queryID     string
	cancelOnErr bool // cancel inside InformError
	cancelAfter int  // cancel inside ReceiveCxtItem once this many items arrived (0 = never)

	items []cxt.Item
	errs  []string
}

func (c *cancellingClient) ReceiveCxtItem(it cxt.Item) {
	c.items = append(c.items, it)
	if c.cancelAfter > 0 && len(c.items) >= c.cancelAfter {
		c.factory.CancelCxtQuery(c.queryID)
	}
}

func (c *cancellingClient) InformError(msg string) {
	c.errs = append(c.errs, msg)
	if c.cancelOnErr {
		c.factory.CancelCxtQuery(c.queryID)
	}
}

func (c *cancellingClient) MakeDecision(string) bool { return true }

// assertNoResidue verifies no facade still tracks the query and the factory
// forgot it.
func assertNoResidue(t *testing.T, f *Factory, queryID string) {
	t.Helper()
	if qs := f.ActiveQueries(); len(qs) != 0 {
		t.Fatalf("active queries after cancel = %v", qs)
	}
	for _, m := range allMechanisms {
		for _, id := range f.Facade(m).Queries() {
			if id == queryID {
				t.Fatalf("facade %s still tracks %s after cancel", m, queryID)
			}
		}
	}
}

// Regression: the client cancels inside the InformError fired when a
// fault-driven switch lands on a suspended facade. The switch must not
// resurrect the cancelled query on its old mechanism.
func TestCancelInsideErrorCallbackDuringFailover(t *testing.T) {
	b := newBed(t)
	cli := &cancellingClient{factory: b.factory, cancelOnErr: true}
	q := query.MustParse("SELECT location DURATION 30 min EVERY 5 sec")
	sub, err := b.factory.ProcessCxtQuery(q, cli)
	if err != nil {
		t.Fatal(err)
	}
	cli.queryID = sub.ID()
	b.clk.Advance(30 * time.Second)
	if len(cli.items) == 0 {
		t.Fatal("no GPS deliveries before the fault")
	}

	// The ad hoc fallback is suspended, so the GPS-failure switch errors into
	// InformError — where the client cancels.
	b.factory.Facade(MechanismAdHoc).SetDisabled(true)
	b.gpsDev.SetFailed(true)
	b.clk.Advance(2 * time.Minute)

	if len(cli.errs) == 0 {
		t.Fatal("no error informed for the failed switch")
	}
	if sub.Active() {
		t.Fatal("subscription still active after cancelling in InformError")
	}
	assertNoResidue(t, b.factory, sub.ID())

	// Later recovery must be a no-op for the cancelled query.
	b.gpsDev.SetFailed(false)
	delivered := len(cli.items)
	b.clk.Advance(3 * time.Minute)
	if len(cli.items) != delivered {
		t.Fatal("deliveries resumed for a cancelled query")
	}
}

// Regression: the client cancels inside a delivery callback right after a
// fault-driven failover, while the recovery probe for the preferred
// mechanism is armed.
func TestCancelInsideDeliveryDuringFailover(t *testing.T) {
	b := newBed(t)
	b.peer.WiFi.PublishTag("location", cxt.Item{
		Type: cxt.TypeLocation, Value: cxt.Fix{Lat: 60.17, Lon: 24.94},
		Timestamp: b.clk.Now(), Lifetime: time.Hour,
	}, 0)
	cli := &cancellingClient{factory: b.factory}
	q := query.MustParse("SELECT location DURATION 30 min EVERY 5 sec")
	sub, err := b.factory.ProcessCxtQuery(q, cli)
	if err != nil {
		t.Fatal(err)
	}
	cli.queryID = sub.ID()
	b.clk.Advance(30 * time.Second)
	before := len(cli.items)
	if before == 0 {
		t.Fatal("no GPS deliveries before the fault")
	}

	// Cancel on the first item the ad hoc fallback delivers.
	cli.cancelAfter = before + 1
	b.gpsDev.SetFailed(true)
	b.clk.Advance(3 * time.Minute)

	if len(cli.items) != before+1 {
		t.Fatalf("items = %d, want exactly one post-failover delivery", len(cli.items))
	}
	if sub.Active() {
		t.Fatal("subscription still active after cancelling in a delivery callback")
	}
	assertNoResidue(t, b.factory, sub.ID())
	if sw := b.factory.Switches(); len(sw) != 1 || sw[0].To != MechanismAdHoc {
		t.Fatalf("switches = %+v, want the single failover", sw)
	}

	// The armed GPS recovery probe must not revive the cancelled query.
	b.gpsDev.SetFailed(false)
	b.clk.Advance(3 * time.Minute)
	if sw := b.factory.Switches(); len(sw) != 1 {
		t.Fatalf("switches after recovery = %+v, want no switch-back for a cancelled query", sw)
	}
}

// The construction options and the deprecated mutate-after-construction
// setters are last-write-wins, per field.
func TestRetryOptionsAndSettersLastWriteWins(t *testing.T) {
	b := newBed(t)
	f := NewFactory(b.peer,
		WithRetryPolicy(RetryPolicy{Attempts: 3, Timeout: 5 * time.Second, Backoff: 2 * time.Second}),
		WithMerging(false),
		WithFailover(false),
	)
	if p := f.RetryPolicy(); p.Attempts != 3 || p.Timeout != 5*time.Second || p.Backoff != 2*time.Second {
		t.Fatalf("factory policy = %+v", p)
	}
	// The option propagated to the per-mechanism references.
	if retries, timeout, backoff := b.peer.WiFi.RetryPolicy(); retries != 2 || timeout != 5*time.Second || backoff != 2*time.Second {
		t.Fatalf("wifi policy = %d/%v/%v after WithRetryPolicy", retries, timeout, backoff)
	}
	if got := b.peer.BT.RequestTimeout(); got != 5*time.Second {
		t.Fatalf("bt timeout = %v after WithRetryPolicy", got)
	}
	// A reference-level SetRetryPolicy call after construction replaces the
	// option-derived values (last write wins at the reference).
	b.peer.WiFi.SetRetryPolicy(7, 5*time.Second, 2*time.Second)
	if retries, timeout, _ := b.peer.WiFi.RetryPolicy(); retries != 7 || timeout != 5*time.Second {
		t.Fatalf("wifi policy = %d/%v after SetRetryPolicy", retries, timeout)
	}
	// Behaviour toggles are options-only: fixed at construction.
	if f.MergeEnabled() || f.FailoverEnabled() {
		t.Fatal("options did not disable merging/failover")
	}
}

// TestFailoverChaosProfiles extends the Fig. 5 scenario into a table over
// injected chaos faults: for each profile the middleware must fail over,
// keep data flowing, fail back once the fault clears, and every switch must
// be attributable to the injected fault via the metrics event ring.
func TestFailoverChaosProfiles(t *testing.T) {
	locItem := func(now time.Time) cxt.Item {
		return cxt.Item{
			Type: cxt.TypeLocation, Value: cxt.Fix{Lat: 60.17, Lon: 24.94},
			Timestamp: now, Lifetime: time.Hour,
		}
	}
	cases := []struct {
		name       string
		src        string // query source string
		infraStore bool   // stock the infra store with locations
		fault      chaos.Fault
		during     Mechanism // mechanism while the fault is active
		after      Mechanism // mechanism after fail-back
	}{
		{
			// The paper's Fig. 5 fault as a chaos profile: the BT link to the
			// GPS flaps instead of the receiver dying.
			name: "gps-link-flap",
			src:  "SELECT location DURATION 30 min EVERY 5 sec",
			fault: chaos.Fault{
				ID: "fault-0000", Kind: chaos.KindLinkFlap,
				At: 155 * time.Second, Duration: 2 * time.Minute,
				Target: "phone", Peer: "bt-gps-1", Medium: radio.MediumBT,
			},
			during: MechanismAdHoc, after: MechanismLocal,
		},
		{
			name:       "wifi-partition",
			src:        "SELECT location FROM entity(peer) DURATION 30 min EVERY 10 sec",
			infraStore: true,
			fault: chaos.Fault{
				ID: "fault-0000", Kind: chaos.KindPartition,
				At: 155 * time.Second, Duration: 2 * time.Minute,
				Target: "phone", Medium: radio.MediumWiFi, Nodes: []string{"phone"},
			},
			during: MechanismInfra, after: MechanismAdHoc,
		},
		{
			name:       "provider-hang",
			src:        "SELECT location FROM entity(peer) DURATION 30 min EVERY 10 sec",
			infraStore: true,
			fault: chaos.Fault{
				ID: "fault-0000", Kind: chaos.KindProviderHang,
				At: 155 * time.Second, Duration: 2 * time.Minute,
				Target: "peer", Medium: radio.MediumWiFi, Severity: 1,
			},
			during: MechanismInfra, after: MechanismAdHoc,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newBed(t)
			b.peer.WiFi.PublishTag("location", locItem(b.clk.Now()), 0)
			if tc.infraStore {
				b.store = append(b.store, locItem(b.clk.Now()))
			}
			start := b.clk.Now()
			faults := []chaos.Fault{tc.fault}
			in := chaos.NewInjector(b.nw, chaos.SimClock{C: b.clk}, b.factory.Metrics(),
				b.chaosTargets(), faults)
			in.Install()

			cli := &testClient{}
			sub, err := b.factory.ProcessCxtQuery(query.MustParse(tc.src), cli)
			if err != nil {
				t.Fatal(err)
			}
			preferred, _ := sub.Mechanism()

			// Phase 1: healthy until the fault lands at t=155 s.
			b.clk.Advance(150 * time.Second)
			phase1 := len(cli.items)
			if phase1 == 0 {
				t.Fatal("no deliveries before the fault")
			}
			// Phase 2: the fault is active (plus slack for the failure to
			// surface through request timeouts).
			b.clk.Advance(2 * time.Minute)
			if mech, _ := sub.Mechanism(); mech != tc.during {
				t.Fatalf("mechanism during fault = %v, want %v", mech, tc.during)
			}
			phase2 := len(cli.items)
			if phase2 <= phase1 {
				t.Fatal("delivery stopped during the fault: failover did not keep data flowing")
			}
			// Phase 3: the fault cleared at t=275 s; the recovery probe fails
			// back to the preferred mechanism.
			b.clk.Advance(4 * time.Minute)
			if mech, _ := sub.Mechanism(); mech != tc.after {
				t.Fatalf("mechanism after clear = %v, want %v", mech, tc.after)
			}
			if tc.after != preferred {
				t.Fatalf("case expects fail-back to %v but the query prefers %v", tc.after, preferred)
			}
			if len(cli.items) <= phase2 {
				t.Fatal("no deliveries after fail-back")
			}

			// Every switch is attributable to the injected fault.
			sws := b.factory.Switches()
			if len(sws) < 2 {
				t.Fatalf("switches = %+v, want failover and fail-back", sws)
			}
			var csw []chaos.Switch
			for _, s := range sws {
				csw = append(csw, chaos.Switch{At: s.At, Query: s.QueryID, Reason: s.Reason})
			}
			att := chaos.Attribute(start, faults, csw)
			if len(att.Unattributed) != 0 {
				t.Fatalf("unattributed switches: %+v", att.Unattributed)
			}

			// Event ordering in the shared ring: the injection precedes the
			// first failure-driven switch.
			events := b.factory.Metrics().Snapshot().Events
			injectedAt, switchedAt := -1, -1
			for i, ev := range events {
				if ev.Kind == metrics.EventFaultInjected && injectedAt < 0 {
					injectedAt = i
				}
				if ev.Kind == metrics.EventSwitched && switchedAt < 0 &&
					strings.Contains(ev.Detail, "failure") {
					switchedAt = i
				}
			}
			if injectedAt < 0 || switchedAt < 0 {
				t.Fatalf("ring lacks fault/switch events (injected=%d switched=%d)", injectedAt, switchedAt)
			}
			if injectedAt > switchedAt {
				t.Fatalf("fault-injected at ring index %d after its switched event at %d", injectedAt, switchedAt)
			}
		})
	}
}

// chaosTargets exposes the bed's devices in the injector's shape.
func (b *bed) chaosTargets() []chaos.Target {
	return []chaos.Target{
		{ID: "phone", GPSNode: "bt-gps-1", GPS: b.gpsDev, SetBattery: b.dev.Monitor.SetBattery},
		{ID: "peer", SetBattery: b.peer.Monitor.SetBattery},
		{ID: "far"},
	}
}
