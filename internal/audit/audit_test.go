package audit

import (
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2006, 6, 1, 12, 0, 0, 0, time.UTC)

func at(d time.Duration) time.Time { return t0.Add(d) }

// TestAuditDoubleRelease seeds a double slot-release: the balance goes
// negative and the auditor must flag it against the qos-slots law.
func TestAuditDoubleRelease(t *testing.T) {
	a := New()
	a.Add(at(0), "p1", "qos.slots", 1)
	a.Add(at(time.Second), "p1", "qos.slots", -1)
	a.Add(at(2*time.Second), "p1", "qos.slots", -1) // the seeded double release
	vs := a.Violations()
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly one", vs)
	}
	if vs[0].Law != LawSlots || !strings.Contains(vs[0].Detail, "negative") {
		t.Fatalf("violation = %+v, want qos-slots underflow", vs[0])
	}
	if got := a.BalanceValue("p1", "qos.slots"); got != 0 {
		t.Fatalf("balance after underflow = %d, want re-armed to 0", got)
	}
}

// TestAuditDoubleTerminal seeds a double Done(): two terminal lifecycle
// events for the same query must produce a lifecycle violation carrying
// the query's trace reference.
func TestAuditDoubleTerminal(t *testing.T) {
	a := New()
	a.QueryStarted(at(0), "p1", "q-1", 0x74726163, 0x73706e31)
	a.QueryFinished(at(time.Second), "p1", "q-1", "finished", 0, 0)
	a.QueryFinished(at(2*time.Second), "p1", "q-1", "cancelled", 0, 0)
	vs := a.Violations()
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly one", vs)
	}
	v := vs[0]
	if v.Law != LawLifecycle || !strings.Contains(v.Detail, `second terminal event "cancelled" after "finished"`) {
		t.Fatalf("violation = %+v, want double-terminal lifecycle breach", v)
	}
	if v.Trace != "0000000074726163/0000000073706e31" {
		t.Fatalf("violation trace = %q, want the query's span reference", v.Trace)
	}
}

// TestAuditLeakedTimer seeds a timer that is armed but never stopped: the
// terminal event must flag it, and LiveTimers must count it while the
// query is still active.
func TestAuditLeakedTimer(t *testing.T) {
	a := New()
	a.QueryStarted(at(0), "p1", "q-1", 0, 0)
	a.TimerArmed(at(0), "p1", "q-1", "expiry")
	a.TimerArmed(at(0), "p1", "q-1", "probe")
	a.TimerStopped(at(time.Second), "p1", "q-1", "probe")
	if got := a.LiveTimers(); got != 1 {
		t.Fatalf("LiveTimers = %d, want 1 (expiry still armed)", got)
	}
	a.QueryFinished(at(2*time.Second), "p1", "q-1", "cancelled", 0, 0)
	vs := a.Violations()
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly one", vs)
	}
	if vs[0].Law != LawTimers || !strings.Contains(vs[0].Detail, `timer "expiry" still armed`) {
		t.Fatalf("violation = %+v, want leaked expiry timer", vs[0])
	}
}

// TestAuditTimerDoubleStop verifies stopping more often than arming is
// caught too — the dual failure mode of a leak.
func TestAuditTimerDoubleStop(t *testing.T) {
	a := New()
	a.QueryStarted(at(0), "p1", "q-1", 0, 0)
	a.TimerArmed(at(0), "p1", "q-1", "expiry")
	a.TimerStopped(at(time.Second), "p1", "q-1", "expiry")
	a.TimerStopped(at(2*time.Second), "p1", "q-1", "expiry")
	vs := a.Violations()
	if len(vs) != 1 || vs[0].Law != LawTimers || !strings.Contains(vs[0].Detail, "stopped more times than armed") {
		t.Fatalf("violations = %v, want one timer double-stop breach", vs)
	}
}

// TestAuditItemAccounting verifies the per-query delivered/cache balance:
// per-delivery taps must match the query's terminal totals.
func TestAuditItemAccounting(t *testing.T) {
	a := New()
	a.QueryStarted(at(0), "p1", "q-1", 0, 0)
	a.ItemDelivered(at(time.Second), "p1", "q-1", false)
	a.ItemDelivered(at(2*time.Second), "p1", "q-1", true)
	a.QueryFinished(at(3*time.Second), "p1", "q-1", "finished", 2, 1)
	if vs := a.Violations(); len(vs) != 0 {
		t.Fatalf("balanced accounting produced violations: %v", vs)
	}

	b := New()
	b.QueryStarted(at(0), "p1", "q-2", 0, 0)
	b.ItemDelivered(at(time.Second), "p1", "q-2", false)
	b.QueryFinished(at(2*time.Second), "p1", "q-2", "finished", 2, 0)
	vs := b.Violations()
	if len(vs) != 1 || vs[0].Law != LawItems {
		t.Fatalf("violations = %v, want one accounting breach", vs)
	}
}

// TestAuditQuiesce verifies the end-of-run sweep: an unterminated query,
// its still-armed timer, and a nonzero balance are all reported.
func TestAuditQuiesce(t *testing.T) {
	a := New()
	a.QueryStarted(at(0), "p1", "q-1", 0, 0)
	a.TimerArmed(at(0), "p1", "q-1", "expiry")
	a.Add(at(0), "p1", "facade.providers.local", 1)
	a.CheckQuiesce(at(time.Minute))
	vs := a.Violations()
	if len(vs) != 3 {
		t.Fatalf("violations = %v, want lifecycle + timer + balance", vs)
	}
	laws := map[Law]bool{}
	for _, v := range vs {
		laws[v.Law] = true
	}
	if !laws[LawLifecycle] || !laws[LawTimers] || !laws[LawRefs] {
		t.Fatalf("laws hit = %v, want lifecycle, timers and refcounts", laws)
	}
}

// TestAuditExpect covers the cross-check assertion used for the qos
// active-slots and pending-gauge laws.
func TestAuditExpect(t *testing.T) {
	a := New()
	a.Expect(at(0), "p1", "", LawSlots, "controller active vs slot-holding queries", 2, 2)
	if vs := a.Violations(); len(vs) != 0 {
		t.Fatalf("matching Expect produced violations: %v", vs)
	}
	a.Expect(at(time.Second), "p1", "", LawSlots, "controller active vs slot-holding queries", 2, 1)
	vs := a.Violations()
	if len(vs) != 1 || vs[0].Law != LawSlots || !strings.Contains(vs[0].Detail, "got 2, want 1") {
		t.Fatalf("violations = %v, want one slots mismatch", vs)
	}
}

// TestAuditDeterministicOrder verifies violations come back sorted by
// (At, Device, Query, Law, Detail) regardless of insertion order.
func TestAuditDeterministicOrder(t *testing.T) {
	a := New()
	a.Violate(at(2*time.Second), "p2", "q-9", LawItems, "later", "")
	a.Violate(at(time.Second), "p9", "q-1", LawTimers, "earlier-b", "")
	a.Violate(at(time.Second), "p1", "q-1", LawTimers, "earlier-a", "")
	vs := a.Violations()
	if len(vs) != 3 {
		t.Fatalf("violations = %d, want 3", len(vs))
	}
	if vs[0].Detail != "earlier-a" || vs[1].Detail != "earlier-b" || vs[2].Detail != "later" {
		t.Fatalf("order = %q,%q,%q, want earlier-a, earlier-b, later",
			vs[0].Detail, vs[1].Detail, vs[2].Detail)
	}
}

// TestAuditNilSafe drives every method on a nil auditor: all must be
// no-ops, exactly like the metrics instruments.
func TestAuditNilSafe(t *testing.T) {
	var a *Auditor
	a.QueryStarted(at(0), "p1", "q-1", 0, 0)
	a.QueryFinished(at(0), "p1", "q-1", "finished", 0, 0)
	a.TimerArmed(at(0), "p1", "q-1", "expiry")
	a.TimerStopped(at(0), "p1", "q-1", "expiry")
	a.ItemDelivered(at(0), "p1", "q-1", false)
	a.Add(at(0), "p1", "qos.slots", 1)
	a.Expect(at(0), "p1", "", LawSlots, "x", 1, 2)
	a.ExpectZero(at(0), "p1", "qos.slots")
	a.Violate(at(0), "p1", "q-1", LawItems, "x", "")
	a.CheckQuiesce(at(0))
	if a.LiveTimers() != 0 || a.Checks() != 0 || a.BalanceValue("p1", "qos.slots") != 0 {
		t.Fatal("nil auditor must report zeros")
	}
	if vs := a.Violations(); len(vs) != 0 {
		t.Fatalf("nil auditor violations = %v, want none", vs)
	}
	if a.Report() != nil {
		t.Fatal("nil auditor Report must be nil")
	}
}

// TestAuditTimerKinds covers a query's timer table past its three inline
// kinds: every kind balances on its own, and the ones left armed at the
// terminal event are each reported.
func TestAuditTimerKinds(t *testing.T) {
	a := New()
	a.QueryStarted(at(0), "p1", "q-1", 0, 0)
	for _, kind := range []string{"probe", "expiry", "cacheTick", "retry", "retry"} {
		a.TimerArmed(at(0), "p1", "q-1", kind)
	}
	a.TimerStopped(at(time.Second), "p1", "q-1", "expiry")
	a.TimerStopped(at(time.Second), "p1", "q-1", "retry")
	if got := a.LiveTimers(); got != 3 {
		t.Fatalf("LiveTimers = %d, want 3 (probe, cacheTick, retry)", got)
	}
	a.TimerStopped(at(time.Second), "p1", "q-1", "never")
	a.QueryFinished(at(2*time.Second), "p1", "q-1", "finished", 0, 0)
	var details []string
	for _, v := range a.Violations() {
		details = append(details, v.Detail)
	}
	want := []string{
		`timer "never" stopped more times than armed`,
		`timer "cacheTick" still armed at terminal event "finished"`,
		`timer "probe" still armed at terminal event "finished"`,
		`timer "retry" still armed at terminal event "finished"`,
	}
	if strings.Join(details, "\n") != strings.Join(want, "\n") {
		t.Fatalf("violations:\n%s\nwant:\n%s", strings.Join(details, "\n"), strings.Join(want, "\n"))
	}
}

// TestAuditTapAllocs: once a query and a balance exist, the hot taps —
// balance moves, timer arm and stop, item delivery — allocate nothing.
func TestAuditTapAllocs(t *testing.T) {
	a := New()
	a.QueryStarted(at(0), "p00042", "q-17", 0x74726163, 0x73706e31)
	a.Add(at(0), "p00042", "facade.providers.adHocNetwork", 1)
	a.TimerArmed(at(0), "p00042", "q-17", "expiry")
	a.TimerArmed(at(0), "p00042", "q-17", "probe")
	a.TimerArmed(at(0), "p00042", "q-17", "cacheTick")
	taps := map[string]func(){
		"Add": func() {
			a.Add(at(0), "p00042", "facade.providers.adHocNetwork", 1)
			a.Add(at(0), "p00042", "facade.providers.adHocNetwork", -1)
		},
		"TimerArmed+TimerStopped": func() {
			a.TimerArmed(at(0), "p00042", "q-17", "cacheTick")
			a.TimerStopped(at(0), "p00042", "q-17", "cacheTick")
		},
		"ItemDelivered": func() { a.ItemDelivered(at(0), "p00042", "q-17", true) },
	}
	for name, tap := range taps {
		if got := testing.AllocsPerRun(100, tap); got != 0 {
			t.Errorf("%s: %v allocations, want 0", name, got)
		}
	}
	if vs := a.Violations(); len(vs) != 0 {
		t.Fatalf("balanced taps produced violations: %v", vs)
	}
}

func BenchmarkAuditTap(b *testing.B) {
	a := New()
	const dev, q = "p00042", "q-17"
	a.QueryStarted(at(0), dev, q, 0x74726163, 0x73706e31)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Add(at(0), dev, "qos.slots", 1)
		a.TimerArmed(at(0), dev, q, "expiry")
		a.ItemDelivered(at(0), dev, q, false)
		a.TimerStopped(at(0), dev, q, "expiry")
		a.Add(at(0), dev, "qos.slots", -1)
	}
}
