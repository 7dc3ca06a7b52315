package chaos

import (
	"reflect"
	"testing"
	"time"

	"contory/internal/metrics"
	"contory/internal/radio"
	"contory/internal/simnet"
	"contory/internal/vclock"
)

type fakeGPS struct{ failed bool }

func (g *fakeGPS) SetFailed(b bool) { g.failed = b }

func targetsN(n int) []Target {
	out := make([]Target, n)
	for i := range out {
		out[i] = Target{ID: string(rune('a' + i))}
	}
	return out
}

func TestPlanDeterministic(t *testing.T) {
	p := Profiles["mixed"]
	ts := targetsN(8)
	a := Plan(p, 42, ts, 10*time.Minute)
	b := Plan(p, 42, ts, 10*time.Minute)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same-seed plans differ")
	}
	if len(a) == 0 {
		t.Fatal("mixed profile over 10 minutes planned no faults")
	}
	c := Plan(p, 43, ts, 10*time.Minute)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("plan not sorted by At: %v after %v", a[i].At, a[i-1].At)
		}
	}
	for i, f := range a {
		if f.ID == "" || f.Duration <= 0 {
			t.Fatalf("fault %d missing ID or duration: %+v", i, f)
		}
	}
}

func TestPlanCapabilityGating(t *testing.T) {
	// No target has GPS or battery handles: those kinds must be skipped.
	p := Profile{GPSOutagePerMin: 5, BatteryPerMin: 5}
	if faults := Plan(p, 1, targetsN(4), 5*time.Minute); len(faults) != 0 {
		t.Fatalf("planned %d gps/battery faults against incapable targets", len(faults))
	}

	// With one capable target, every such fault lands on it.
	g := &fakeGPS{}
	ts := targetsN(4)
	ts[2].GPS = g
	ts[3].SetBattery = func(float64) {}
	faults := Plan(p, 1, ts, 5*time.Minute)
	if len(faults) == 0 {
		t.Fatal("no faults planned despite capable targets")
	}
	for _, f := range faults {
		switch f.Kind {
		case KindGPSOutage:
			if f.Target != ts[2].ID {
				t.Fatalf("gps fault aimed at %q, want %q", f.Target, ts[2].ID)
			}
		case KindBatteryDrain:
			if f.Target != ts[3].ID {
				t.Fatalf("battery fault aimed at %q, want %q", f.Target, ts[3].ID)
			}
		default:
			t.Fatalf("unexpected fault kind %q", f.Kind)
		}
	}
}

func TestPlanLinkFlapPrefersGPSLink(t *testing.T) {
	ts := targetsN(3)
	for i := range ts {
		ts[i].GPSNode = ts[i].ID + "-gps"
	}
	faults := Plan(Profile{LinkFlapPerMin: 3}, 7, ts, 5*time.Minute)
	if len(faults) == 0 {
		t.Fatal("no flaps planned")
	}
	for _, f := range faults {
		if f.Medium != radio.MediumBT || f.Peer != f.Target+"-gps" {
			t.Fatalf("flap with GPSNode target should hit the BT GPS link, got %+v", f)
		}
	}
}

func TestInjectorAppliesAndClears(t *testing.T) {
	clk := vclock.NewSimulator()
	nw := simnet.New(clk)
	for _, id := range []simnet.NodeID{"a", "b"} {
		if _, err := nw.AddNode(id, simnet.Position{}); err != nil {
			t.Fatal(err)
		}
	}
	reg := metrics.NewRegistry()
	g := &fakeGPS{}
	batt := 1.0
	targets := []Target{
		{ID: "a", GPS: g, SetBattery: func(v float64) { batt = v }},
		{ID: "b"},
	}
	faults := []Fault{
		{ID: "fault-0000", Kind: KindRadioOutage, At: 10 * time.Second, Duration: 20 * time.Second, Target: "a", Medium: radio.MediumWiFi},
		{ID: "fault-0001", Kind: KindPartition, At: 15 * time.Second, Duration: 20 * time.Second, Target: "a", Medium: radio.MediumWiFi, Nodes: []string{"a"}},
		{ID: "fault-0002", Kind: KindGPSOutage, At: 20 * time.Second, Duration: 10 * time.Second, Target: "a"},
		{ID: "fault-0003", Kind: KindBatteryDrain, At: 25 * time.Second, Duration: 10 * time.Second, Target: "a"},
		{ID: "fault-0004", Kind: KindProviderHang, At: 30 * time.Second, Duration: 10 * time.Second, Target: "b", Medium: radio.MediumWiFi, Severity: 1},
	}
	in := NewInjector(nw, SimClock{C: clk}, reg, targets, faults)
	in.Install()

	if err := nw.Connect("a", "b", radio.MediumWiFi); err != nil {
		t.Fatal(err)
	}

	clk.Advance(12 * time.Second)
	if nw.Node("a").RadioOn(radio.MediumWiFi) {
		t.Fatal("radio still on during outage window")
	}
	clk.Advance(10 * time.Second) // t = 22 s: partition + gps outage active
	if nw.Linked("a", "b", radio.MediumWiFi) {
		t.Fatal("partitioned nodes still linked")
	}
	if !g.failed {
		t.Fatal("gps not failed during outage")
	}
	clk.Advance(5 * time.Second) // t = 27 s: battery drain active
	if batt != 0 {
		t.Fatalf("battery = %v during drain", batt)
	}
	if !nw.Node("a").Down() {
		t.Fatal("node not down during battery drain")
	}
	clk.Advance(5 * time.Second) // t = 32 s: hang active
	if nw.NodeLoss("b", radio.MediumWiFi) != 1 {
		t.Fatal("hang did not set node loss to 1")
	}

	clk.Advance(time.Minute) // everything cleared
	if !nw.Node("a").RadioOn(radio.MediumWiFi) {
		t.Fatal("radio not restored")
	}
	if !nw.Linked("a", "b", radio.MediumWiFi) {
		t.Fatal("partition not healed")
	}
	if g.failed {
		t.Fatal("gps not restored")
	}
	if batt != 1 || nw.Node("a").Down() {
		t.Fatalf("battery drain not cleared: batt=%v down=%v", batt, nw.Node("a").Down())
	}
	if nw.NodeLoss("b", radio.MediumWiFi) != 0 {
		t.Fatal("hang not cleared")
	}

	snap := reg.Snapshot()
	counter := func(name string) int64 {
		for _, c := range snap.Counters {
			if c.Name == name {
				return c.Value
			}
		}
		return 0
	}
	if got := counter("chaos.faults.injected"); got != int64(len(faults)) {
		t.Fatalf("injected counter = %d, want %d", got, len(faults))
	}
	if got := counter("chaos.faults.cleared"); got != int64(len(faults)) {
		t.Fatalf("cleared counter = %d, want %d", got, len(faults))
	}
	var injected, cleared int
	for _, ev := range snap.Events {
		switch ev.Kind {
		case metrics.EventFaultInjected:
			injected++
		case metrics.EventFaultCleared:
			cleared++
		}
	}
	if injected != len(faults) || cleared != len(faults) {
		t.Fatalf("ring has %d injected / %d cleared events, want %d each", injected, cleared, len(faults))
	}
}

func TestAttribute(t *testing.T) {
	start := time.Unix(0, 0).UTC()
	faults := []Fault{
		{ID: "fault-0000", Kind: KindGPSOutage, At: time.Minute, Duration: 30 * time.Second, Target: "phone"},
		{ID: "fault-0001", Kind: KindRadioOutage, At: 5 * time.Minute, Duration: 30 * time.Second, Target: "phone", Medium: radio.MediumUMTS},
	}
	switches := []Switch{
		// Inside the gps fault window, gps reason: attributed to it.
		{At: start.Add(70 * time.Second), Query: "phone/q1", Reason: "failure of bt-gps-1: link lost"},
		// Cascade inside the window + grace: adhoc fallback timing out.
		{At: start.Add(2 * time.Minute), Query: "phone/q1", Reason: "failure of wifi: finder timeout"},
		// UMTS reason during the umts outage.
		{At: start.Add(5*time.Minute + 10*time.Second), Query: "phone/q2", Reason: "failure of umts: request timeout"},
		// No fault anywhere near: unattributed.
		{At: start.Add(20 * time.Minute), Query: "phone/q3", Reason: "failure of wifi: finder timeout"},
	}
	att := Attribute(start, faults, switches)
	if att.Switches != 4 || att.Attributed != 3 {
		t.Fatalf("attributed %d of %d, want 3 of 4", att.Attributed, att.Switches)
	}
	if len(att.Unattributed) != 1 || att.Unattributed[0].Query != "phone/q3" {
		t.Fatalf("unattributed = %+v", att.Unattributed)
	}
	if att.ByKind[string(KindGPSOutage)] != 2 || att.ByKind[string(KindRadioOutage)] != 1 {
		t.Fatalf("by kind = %v", att.ByKind)
	}
}

func TestReasonClass(t *testing.T) {
	cases := map[string]string{
		"failure of wifi: finder timeout": "wifi",
		"failure of bt-gps-1: no signal":  "gps",
		"failure of phone-007-gps: x":     "gps",
		"recovery of umts":                "umts",
		"reducePower (battery-low)":       "battery",
		"failure of phone: switched off":  "phone",
	}
	for reason, want := range cases {
		if got := reasonClass(reason); got != want {
			t.Errorf("reasonClass(%q) = %q, want %q", reason, got, want)
		}
	}
}
