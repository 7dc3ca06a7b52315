package experiments

import (
	"fmt"
	"time"

	"contory/internal/cxt"
	"contory/internal/energy"
	"contory/internal/infra"
	"contory/internal/provider"
	"contory/internal/refs"
	"contory/internal/simnet"
	"contory/internal/sm"
	"contory/internal/trace"
)

// Table2Row is one energy measurement of Table 2.
type Table2Row struct {
	Method    string
	Operation string
	// Joules is the average energy per context item; LowerBound marks the
	// "> x" rows (WiFi, where the paper could only bound the cost).
	Joules     Stat
	LowerBound bool
}

// Table2Result is the reproduced Table 2.
type Table2Result struct {
	Rows []Table2Row
	// BatchPerItem demonstrates the UMTS batching effect: per-item energy
	// for batch sizes 1, 5 and 20.
	BatchPerItem map[int]float64
}

// String renders the table in the paper's layout.
func (r Table2Result) String() string {
	t := &trace.Table{
		Title:   "Table 2. Energy consumption of context provisioning mechanisms (reproduced)",
		Headers: []string{"Context provisioning method: operation", "Energy per cxtItem (J) Avg [90% Conf]"},
	}
	for _, row := range r.Rows {
		val := row.Joules.String()
		if row.LowerBound {
			val = fmt.Sprintf("> %.3f", row.Joules.Avg)
		}
		t.Add(row.Method+": "+row.Operation, val)
	}
	out := t.String()
	out += "\nUMTS batching (energy per item when k items share one connection):\n"
	for _, k := range []int{1, 5, 20} {
		out += fmt.Sprintf("  k=%-3d %7.3f J\n", k, r.BatchPerItem[k])
	}
	return out
}

// Table2 measures per-item energy for every provisioning mechanism of
// Table 2 through the middleware stack, integrating each device's power
// timeline exactly as the paper integrates multimeter readings.
func Table2(rounds int, seed int64) (Table2Result, error) {
	if rounds <= 0 {
		rounds = 5
	}
	var res Table2Result

	btProvide, err := measureBTProvide(rounds, seed)
	if err != nil {
		return res, err
	}
	btOnDemand, err := measureBTOnDemand(rounds, seed+1000)
	if err != nil {
		return res, err
	}
	btPeriodic, err := measureBTPeriodic(seed + 2000)
	if err != nil {
		return res, err
	}
	gpsPeriodic, err := measureGPSPeriodic(seed + 3000)
	if err != nil {
		return res, err
	}
	wifi1, err := measureWiFiPeriodic(1, rounds, seed+4000)
	if err != nil {
		return res, err
	}
	wifi2, err := measureWiFiPeriodic(2, rounds, seed+5000)
	if err != nil {
		return res, err
	}
	umts, err := measureUMTSOnDemand(rounds, seed+6000)
	if err != nil {
		return res, err
	}

	res.Rows = []Table2Row{
		{Method: "adHocNetwork, BT-based", Operation: "provideCxtItem", Joules: btProvide},
		{Method: "adHocNetwork, BT-based", Operation: "getCxtItem (one-hop, on-demand, incl. discovery)", Joules: btOnDemand},
		{Method: "adHocNetwork, BT-based", Operation: "getCxtItem (one-hop, periodic, w/o discovery)", Joules: btPeriodic},
		{Method: "intSensor, BT-based", Operation: "getCxtItem (periodic, w/o discovery)", Joules: gpsPeriodic},
		{Method: "adHocNetwork, WiFi-based", Operation: "getCxtItem (one hop, periodic)", Joules: wifi1, LowerBound: true},
		{Method: "adHocNetwork, WiFi-based", Operation: "getCxtItem (two hops, periodic)", Joules: wifi2, LowerBound: true},
		{Method: "extInfra, UMTS-based", Operation: "getCxtItem (on-demand)", Joules: umts},
	}

	res.BatchPerItem = make(map[int]float64)
	u := NewTestbedMust(seed + 7000)
	for _, k := range []int{1, 5, 20} {
		_, ws := u.Phone.RadioUMTS.GetBatch(k)
		var total float64
		for _, w := range ws {
			total += float64(w.MW) / 1000 * w.Dur.Seconds()
		}
		res.BatchPerItem[k] = total / float64(k)
	}
	return res, nil
}

// NewTestbedMust is NewTestbed for contexts where construction cannot fail
// (fixed topology); it panics on error.
func NewTestbedMust(seed int64) *Testbed {
	tb, err := NewTestbed(seed)
	if err != nil {
		panic(err)
	}
	return tb
}

// lightItem is the 136-byte payload used throughout §6.1.
func lightItem(tb *Testbed) cxt.Item {
	return cxt.Item{Type: cxt.TypeLight, Value: 420.0, Timestamp: tb.Clock.Now()}
}

// measureBTProvide measures the provider-side energy per served item.
func measureBTProvide(rounds int, seed int64) (Stat, error) {
	tb, err := NewTestbed(seed)
	if err != nil {
		return Stat{}, err
	}
	tb.Peer.BT.RegisterService(refs.ServiceRecord{Name: "light", Item: lightItem(tb)}, nil)
	tb.Clock.Advance(time.Second)
	var vals []float64
	for i := 0; i < rounds; i++ {
		before := tb.Peer.Node.Timeline().WindowEnergy("bt-provide")
		done := false
		tb.Phone.BT.Get("peer", "light", func(cxt.Item, error) { done = true })
		tb.Clock.Advance(5 * time.Second)
		if !done {
			return Stat{}, fmt.Errorf("experiments: bt provide round %d stalled", i)
		}
		after := tb.Peer.Node.Timeline().WindowEnergy("bt-provide")
		vals = append(vals, float64(after-before))
	}
	return newStat(vals), nil
}

// btRequesterLabels are the phone-side power windows of BT operations.
var btRequesterLabels = []string{"bt-inquiry", "bt-sdp", "bt-get"}

func windowSum(tl *energy.Timeline, labels []string) float64 {
	var total float64
	for _, l := range labels {
		total += float64(tl.WindowEnergy(l))
	}
	return total
}

// measureBTOnDemand measures a full on-demand ad hoc BT query on the
// requester, including the 13-s device discovery and SDP service discovery
// (the dominant cost in Table 2's 5.27 J row).
func measureBTOnDemand(rounds int, seed int64) (Stat, error) {
	var vals []float64
	for i := 0; i < rounds; i++ {
		tb, err := NewTestbed(seed + int64(i))
		if err != nil {
			return Stat{}, err
		}
		tb.Peer.BT.RegisterService(refs.ServiceRecord{Name: "light", Item: lightItem(tb)}, nil)
		tb.Clock.Advance(time.Second)
		tl := tb.Phone.Node.Timeline()
		before := windowSum(tl, btRequesterLabels)
		got := false
		// The on-demand sequence: inquiry → SDP → one get.
		tb.Phone.BT.Discover(func(devs []simnet.NodeID) {
			tb.Phone.BT.DiscoverServices("peer", func([]string, error) {
				tb.Phone.BT.Get("peer", "light", func(cxt.Item, error) { got = true })
			})
		})
		tb.Clock.Advance(time.Minute)
		if !got {
			return Stat{}, fmt.Errorf("experiments: bt on-demand round %d stalled", i)
		}
		vals = append(vals, windowSum(tl, btRequesterLabels)-before)
	}
	return newStat(vals), nil
}

// measureBTPeriodic measures the steady-state per-item cost of a periodic
// one-hop BT query through the full middleware (discovery excluded).
func measureBTPeriodic(seed int64) (Stat, error) {
	tb, err := NewTestbed(seed)
	if err != nil {
		return Stat{}, err
	}
	// The phone has no WiFi route preference here: force BT one-hop by
	// registering the service and using the BT reference directly through
	// a periodic provider schedule.
	tb.Peer.BT.RegisterService(refs.ServiceRecord{Name: "light", Item: lightItem(tb)}, nil)
	tb.Clock.Advance(time.Second)
	tl := tb.Phone.Node.Timeline()
	items := 0
	ticker := tb.Clock.Every(10*time.Second, func() {
		tb.Phone.BT.Get("peer", "light", func(it cxt.Item, err error) {
			if err == nil {
				items++
			}
		})
	})
	before := float64(tl.WindowEnergy("bt-get"))
	tb.Clock.Advance(10 * time.Minute)
	ticker.Stop()
	if items == 0 {
		return Stat{}, fmt.Errorf("experiments: bt periodic collected nothing")
	}
	perItem := (float64(tl.WindowEnergy("bt-get")) - before) / float64(items)
	return Stat{Avg: perItem, N: items}, nil
}

// measureGPSPeriodic measures the per-sample cost of the intSensor BT-GPS
// stream (340-byte NMEA bursts with BT segmentation).
func measureGPSPeriodic(seed int64) (Stat, error) {
	tb, err := NewTestbed(seed)
	if err != nil {
		return Stat{}, err
	}
	samples := 0
	disconnect, err := tb.Phone.BT.ConnectGPS("bt-gps-1", func(cxt.Fix) { samples++ }, nil)
	if err != nil {
		return Stat{}, err
	}
	tl := tb.Phone.Node.Timeline()
	tb.Clock.Advance(10 * time.Minute)
	disconnect()
	if samples == 0 {
		return Stat{}, fmt.Errorf("experiments: gps stream produced nothing")
	}
	perSample := float64(tl.WindowEnergy("bt-gps-sample")) / float64(samples)
	return Stat{Avg: perSample, N: samples}, nil
}

// measureWiFiPeriodic measures the requester-side energy of one periodic
// WiFi get at the given hop count (route pre-built), which the paper bounds
// from below because the communicator kept switching off in the meter rig.
func measureWiFiPeriodic(hops, rounds int, seed int64) (Stat, error) {
	tb, err := NewTestbed(seed)
	if err != nil {
		return Stat{}, err
	}
	target := tb.Peer
	if hops == 2 {
		target = tb.Far
	}
	target.WiFi.PublishTag("light", lightItem(tb), 0)
	tl := tb.Phone.Node.Timeline()
	var vals []float64
	for i := 0; i < rounds+1; i++ {
		start := tb.Clock.Now()
		baseline := float64(tl.Power())
		var drawn energy.Interval
		tl.Open(&drawn)
		var doneAt time.Time
		tb.Phone.WiFi.Query(sm.FinderSpec{TagName: "light", MaxHops: hops},
			func([]sm.Result, error) {
				drawn.Close()
				doneAt = tb.Clock.Now()
			})
		tb.Clock.Advance(time.Minute)
		if doneAt.IsZero() {
			return Stat{}, fmt.Errorf("experiments: wifi periodic (%d hops) round %d stalled", hops, i)
		}
		if i == 0 {
			continue // route-building round excluded, as in Table 1/2
		}
		dur := doneAt.Sub(start).Seconds()
		e := float64(drawn.Joules()) - baseline/1000*dur
		vals = append(vals, e)
	}
	return newStat(vals), nil
}

// umtsLabels are the phone-side UMTS connection power windows.
var umtsLabels = []string{"umts-conn-open", "umts-transfer", "umts-tail"}

// measureUMTSOnDemand measures one on-demand extInfra retrieval including
// the connection-open peak and the radio tail.
func measureUMTSOnDemand(rounds int, seed int64) (Stat, error) {
	tb, err := NewTestbed(seed)
	if err != nil {
		return Stat{}, err
	}
	if _, err := tb.Peer.UMTS.Publish(infra.ChannelWeather, lightItem(tb)); err != nil {
		return Stat{}, err
	}
	tb.Clock.Advance(30 * time.Second)
	tl := tb.Phone.Node.Timeline()
	var vals []float64
	for i := 0; i < rounds; i++ {
		before := windowSum(tl, umtsLabels)
		done := false
		tb.Phone.UMTS.Request(provider.InfraOpGetItem,
			provider.InfraQuery{Select: cxt.TypeLight}, 0,
			func(any, error) { done = true })
		tb.Clock.Advance(2 * time.Minute) // query + radio tail
		if !done {
			return Stat{}, fmt.Errorf("experiments: umts on-demand round %d stalled", i)
		}
		vals = append(vals, windowSum(tl, umtsLabels)-before)
	}
	return newStat(vals), nil
}
