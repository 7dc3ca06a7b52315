package core

import (
	"testing"
	"time"

	"contory/internal/query"
	"contory/internal/radio"
)

// submitLocal submits src to the bed's factory on behalf of cli.
func (b *bed) submitLocal(t *testing.T, src string, cli *testClient) *Subscription {
	t.Helper()
	sub, err := b.factory.ProcessCxtQuery(query.MustParse(src), cli)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// wantOneMerge fails unless exactly one submission merged into a running
// local provider.
func (b *bed) wantOneMerge(t *testing.T) {
	t.Helper()
	if created, merged := b.factory.Facade(MechanismLocal).Stats(); created != 1 || merged != 1 {
		t.Fatalf("local facade: %d providers created, %d merges; want 1 and 1", created, merged)
	}
}

// A query merged into a running GPS stream keeps its own DURATION: the
// factory expires each original query on its own clock, so the second
// query outlives the stream's first owner instead of ending with it.
func TestMergedSubscriberKeepsOwnDuration(t *testing.T) {
	b := newBed(t)
	const src = "SELECT location FROM intSensor DURATION 60 sec EVERY 5 sec"
	first, second := &testClient{}, &testClient{}
	sub1 := b.submitLocal(t, src, first)
	b.clk.Advance(30 * time.Second)
	sub2 := b.submitLocal(t, src, second)
	b.wantOneMerge(t)

	b.clk.Advance(45 * time.Second) // t = 75 s
	if sub1.Active() || !sub2.Active() {
		t.Fatalf("at 75 s: first active %v, second active %v (%d items); want false, true",
			sub1.Active(), sub2.Active(), len(second.items))
	}
	b.clk.Advance(15 * time.Second) // t = 90 s
	if sub2.Active() {
		t.Fatal("second query still active after its DURATION")
	}
	if len(first.items) != 11 || len(second.items) != 11 {
		t.Fatalf("items = %d and %d, want 11 each (one per 5 s of each query's 60 s)",
			len(first.items), len(second.items))
	}
	if n := b.factory.Facade(MechanismLocal).ActiveProviders(); n != 0 {
		t.Fatalf("%d providers running after both queries ended", n)
	}
}

// A query merged into a running GPS stream gets its own SAMPLES budget,
// counted on its own deliveries rather than on the merged stream's.
func TestMergedSubscriberKeepsOwnSampleBudget(t *testing.T) {
	b := newBed(t)
	const src = "SELECT location FROM intSensor DURATION 4 samples EVERY 5 sec"
	first, second := &testClient{}, &testClient{}
	sub1 := b.submitLocal(t, src, first)
	b.clk.Advance(12 * time.Second)
	sub2 := b.submitLocal(t, src, second)
	b.wantOneMerge(t)

	b.clk.Advance(time.Minute)
	if len(first.items) != 4 || len(second.items) != 4 {
		t.Fatalf("items = %d and %d, want 4 each", len(first.items), len(second.items))
	}
	if sub1.Active() || sub2.Active() {
		t.Fatal("a query outlived its sample budget")
	}
	if n := b.factory.Facade(MechanismLocal).ActiveProviders(); n != 0 {
		t.Fatalf("%d providers running after both budgets were spent", n)
	}
}

// A merge that speeds the stream up re-arms its round at the faster EVERY:
// an EVERY 10 sec query merged 1 s into an EVERY 30 sec GPS stream gets an
// item every 10 s, the first 10 s after the merge, and so does the slower
// query.
func TestMergeSpeedsUpRound(t *testing.T) {
	b := newBed(t)
	slow, fast := &testClient{}, &testClient{}
	b.submitLocal(t, "SELECT location FROM intSensor DURATION 10 min EVERY 30 sec", slow)
	b.clk.Advance(time.Second)
	b.submitLocal(t, "SELECT location FROM intSensor DURATION 10 min EVERY 10 sec", fast)
	b.wantOneMerge(t)

	b.clk.Advance(2 * time.Minute) // ticks at 11, 21, …, 121 s
	if len(fast.items) != 12 || len(slow.items) != 12 {
		t.Fatalf("items in 2 min = %d (fast) and %d (slow), want 12 each", len(fast.items), len(slow.items))
	}
}

// Cancelling the fast query re-narrows the stream to the slower EVERY and
// re-arms its round, so the remaining query stops receiving the fast
// rate's items: the first tick comes 30 s after the cancel.
func TestCancelSlowsRoundDown(t *testing.T) {
	b := newBed(t)
	fast, slow := &testClient{}, &testClient{}
	subFast := b.submitLocal(t, "SELECT location FROM intSensor DURATION 10 min EVERY 10 sec", fast)
	b.clk.Advance(time.Second)
	b.submitLocal(t, "SELECT location FROM intSensor DURATION 10 min EVERY 30 sec", slow)
	b.wantOneMerge(t)

	b.clk.Advance(time.Minute) // t = 61 s; ticks at 10, 20, …, 60 s
	if len(slow.items) != 6 {
		t.Fatalf("slow query got %d items while merged, want 6 (every fast tick)", len(slow.items))
	}
	subFast.Cancel()
	b.clk.Advance(time.Minute) // ticks at 91 and 121 s
	if got := len(slow.items) - 6; got != 2 {
		t.Fatalf("slow query got %d items in the minute after the fast one cancelled, want 2", got)
	}
}

// A provider whose Start fails leaves no timer armed: with the BT-GPS
// link down the location query is refused, and the scheduler holds what
// it held before the submission.
func TestFailedStartLeavesNothingArmed(t *testing.T) {
	b := newBed(t)
	b.nw.Disconnect("phone", "bt-gps-1", radio.MediumBT)
	pending := b.clk.Pending()
	q := query.MustParse("SELECT location FROM intSensor DURATION 1 min EVERY 5 sec")
	if _, err := b.factory.ProcessCxtQuery(q, &testClient{}); err == nil {
		t.Fatal("location query accepted with the GPS link down")
	}
	if got := b.clk.Pending(); got != pending {
		t.Fatalf("%d timers pending after the refusal, %d before", got, pending)
	}
	if n := b.factory.Facade(MechanismLocal).ActiveProviders(); n != 0 {
		t.Fatalf("%d providers left after the refusal", n)
	}
}
