package experiments

import (
	"fmt"
	"time"

	"contory/internal/core"
	"contory/internal/cxt"
	"contory/internal/energy"
	"contory/internal/query"
	"contory/internal/trace"
)

// BaselineRow is one operating-mode power measurement (§6.1).
type BaselineRow struct {
	Mode string
	MW   float64
}

// BaselineResult reproduces the operating-mode power study.
type BaselineResult struct {
	Rows []BaselineRow
}

// String renders the measurements.
func (r BaselineResult) String() string {
	t := &trace.Table{
		Title:   "Operating-mode power (GSM radio off), reproduced §6.1",
		Headers: []string{"Mode", "Avg power (mW)"},
	}
	for _, row := range r.Rows {
		t.Add(row.Mode, fmt.Sprintf("%.2f", row.MW))
	}
	return t.String()
}

// BaselinePower measures the §6.1 operating modes on a fresh device by
// toggling display, back-light, BT and Contory states and reading the
// power timeline.
func BaselinePower(seed int64) (BaselineResult, error) {
	tb, err := NewTestbed(seed)
	if err != nil {
		return BaselineResult{}, err
	}
	tl := tb.Phone.Node.Timeline()
	read := func() float64 { return float64(tl.Power()) }

	var res BaselineResult
	// Strip down to bare idle: BT scan off, Contory state off.
	tl.SetState("bt-scan", 0)
	tl.SetState("contory", 0)
	tb.Phone.SetBacklight(true)
	res.Rows = append(res.Rows, BaselineRow{"BT off, back-light on, display on", read()})
	tb.Phone.SetBacklight(false)
	res.Rows = append(res.Rows, BaselineRow{"back-light off, display on", read()})
	tb.Phone.SetDisplay(false)
	res.Rows = append(res.Rows, BaselineRow{"display off", read()})
	tl.SetState("bt-scan", energy.BTScan)
	res.Rows = append(res.Rows, BaselineRow{"+ BT page/inquiry scan", read()})
	tl.SetState("contory", energy.ContoryOn)
	res.Rows = append(res.Rows, BaselineRow{"+ Contory running", read()})
	return res, nil
}

// Figure4Result is the reproduced Fig. 4: power consumption of extInfra
// provisioning, with 5 on-demand queries sent over UMTS every 3 minutes.
type Figure4Result struct {
	Samples []energy.Sample
	// PeakMW is the highest sampled power (the paper reports 1000 mW at
	// connection open).
	PeakMW float64
	// IdlePeaks counts GSM idle-signalling bursts between queries
	// (450–481 mW every 50–60 s in the paper).
	IdlePeaks int
	// QueriesSent is the number of completed queries (5 in the paper).
	QueriesSent int
	// EnergyJ is the total energy over the run.
	EnergyJ float64
}

// String renders the trace as an ASCII plot plus summary.
func (r Figure4Result) String() string {
	out := trace.Plot(r.Samples, 90, 12,
		"Fig. 4 (reproduced): power consumption for extInfra provisioning\n"+
			"(5 on-demand UMTS queries, one every 3 min; GSM radio on)")
	out += fmt.Sprintf("\nqueries completed: %d   peak power: %.0f mW   GSM idle peaks: %d   total energy: %.1f J\n",
		r.QueriesSent, r.PeakMW, r.IdlePeaks, r.EnergyJ)
	return out
}

// Figure4 runs the Fig. 4 scenario: the phone, with GSM radio on, sends 5
// on-demand extInfra queries 3 minutes apart while a 500-ms multimeter
// samples its power draw.
func Figure4(seed int64) (Figure4Result, error) {
	tb, err := NewTestbed(seed)
	if err != nil {
		return Figure4Result{}, err
	}
	clk := tb.Clock
	// Seed the infrastructure with a weather item to query.
	if _, err := tb.Peer.UMTS.Publish("weather", cxt.Item{
		Type: cxt.TypeWeather, Value: "sunny", Timestamp: clk.Now(),
	}); err != nil {
		return Figure4Result{}, err
	}
	clk.Advance(time.Minute)

	meter, err := energy.NewMeter(clk, tb.Phone.Node.Timeline(), energy.DefaultMeterInterval)
	if err != nil {
		return Figure4Result{}, err
	}
	cli := &collectClient{}
	meter.Start()
	var drawn energy.Interval
	tb.Phone.Node.Timeline().Open(&drawn)
	tb.Phone.UMTS.SetGSMRadio(true)

	completed := 0
	for i := 0; i < 5; i++ {
		q := query.MustParse("SELECT weather FROM extInfra DURATION 1 min")
		if _, err := tb.Factory.ProcessCxtQuery(q, cli); err != nil {
			return Figure4Result{}, err
		}
		clk.Advance(3 * time.Minute)
		completed = len(cli.items)
	}
	tb.Phone.UMTS.SetGSMRadio(false)
	meter.Stop()

	res := Figure4Result{
		Samples:     meter.Samples(),
		PeakMW:      float64(meter.MaxPower()),
		QueriesSent: completed,
		EnergyJ:     float64(drawn.Close()),
	}
	// Count idle peaks: samples in the GSM idle band while no query burst
	// is running.
	for _, s := range res.Samples {
		if s.Power >= 440 && s.Power <= 500 {
			res.IdlePeaks++
		}
	}
	// Consecutive samples of one burst collapse: peaks last 1.5 s = 3-4
	// samples.
	res.IdlePeaks /= 3
	return res, nil
}

// collectClient is a minimal Client for experiment runs.
type collectClient struct {
	items []cxt.Item
	errs  []string
}

func (c *collectClient) ReceiveCxtItem(it cxt.Item) { c.items = append(c.items, it) }
func (c *collectClient) InformError(msg string)     { c.errs = append(c.errs, msg) }
func (c *collectClient) MakeDecision(string) bool   { return true }

// Figure5Phase labels a segment of the failover timeline.
type Figure5Phase struct {
	Name     string
	Start    time.Duration // since experiment start
	End      time.Duration
	Items    int     // items delivered during the phase
	MeanMW   float64 // mean sampled power
	Provider string  // mechanism serving the query
}

// Figure5Result is the reproduced Fig. 5: Contory behaviour in the
// presence of a BT-GPS failure.
type Figure5Result struct {
	Samples  []energy.Sample
	Phases   []Figure5Phase
	Switches []core.SwitchEvent
	// ProbeEnergyJ is the energy spent on BT discovery probes while the
	// GPS was away (the paper's 163–292 mW switching bumps).
	ProbeEnergyJ float64
}

// String renders the trace and the phase summary.
func (r Figure5Result) String() string {
	out := trace.Plot(r.Samples, 90, 12,
		"Fig. 5 (reproduced): Contory behaviour in the presence of BT-GPS failure\n"+
			"(periodic location query; GPS dies at t=155 s; ad hoc takes over; GPS returns)")
	t := &trace.Table{
		Title:   "\nPhases",
		Headers: []string{"Phase", "Window", "Mechanism", "Items", "Mean power (mW)"},
	}
	for _, p := range r.Phases {
		t.Add(p.Name,
			fmt.Sprintf("%3.0fs–%3.0fs", p.Start.Seconds(), p.End.Seconds()),
			p.Provider, fmt.Sprintf("%d", p.Items), fmt.Sprintf("%.1f", p.MeanMW))
	}
	out += t.String()
	out += "\nStrategy switches:\n"
	for _, s := range r.Switches {
		out += fmt.Sprintf("  %6.0fs  %s → %s (%s)\n",
			s.At.Sub(vclockEpoch()).Seconds(), s.From, s.To, s.Reason)
	}
	return out
}

// Figure5 runs the Fig. 5 scenario: a periodic location query served by the
// BT-GPS; at t=155 s the GPS is switched off and Contory fails over to ad
// hoc provisioning; later the GPS returns and Contory switches back.
func Figure5(seed int64) (Figure5Result, error) {
	tb, err := NewTestbed(seed)
	if err != nil {
		return Figure5Result{}, err
	}
	clk := tb.Clock
	// The peer publishes its location in the ad hoc network so failover
	// has a source.
	tb.Peer.WiFi.PublishTag("location", cxt.Item{
		Type: cxt.TypeLocation, Value: cxt.Fix{Lat: 60.17, Lon: 24.94, SpeedKn: 4},
		Timestamp: clk.Now(), Lifetime: time.Hour,
	}, 0)

	meter, err := energy.NewMeter(clk, tb.Phone.Node.Timeline(), energy.DefaultMeterInterval)
	if err != nil {
		return Figure5Result{}, err
	}
	cli := &collectClient{}
	meter.Start()
	start := clk.Now()

	q := query.MustParse("SELECT location DURATION 20 min EVERY 5 sec")
	if _, err := tb.Factory.ProcessCxtQuery(q, cli); err != nil {
		return Figure5Result{}, err
	}

	type mark struct {
		name string
		at   time.Duration
		mech string
	}
	var res Figure5Result
	phase := func(name string, d time.Duration, mech string) Figure5Phase {
		startItems := len(cli.items)
		p0 := clk.Now()
		clk.Advance(d)
		var sum, n float64
		for _, s := range meter.Samples() {
			if !s.At.Before(p0) && s.At.Before(clk.Now()) {
				sum += float64(s.Power)
				n++
			}
		}
		mean := 0.0
		if n > 0 {
			mean = sum / n
		}
		return Figure5Phase{
			Name:     name,
			Start:    p0.Sub(start),
			End:      clk.Now().Sub(start),
			Items:    len(cli.items) - startItems,
			MeanMW:   mean,
			Provider: mech,
		}
	}
	_ = mark{}

	// Phase 1: GPS healthy until t = 155 s.
	res.Phases = append(res.Phases, phase("GPS provisioning", 155*time.Second, "intSensor (BT-GPS)"))
	// GPS manually switched off.
	tb.GPS.SetFailed(true)
	probeBefore := float64(tb.Phone.Node.Timeline().WindowEnergy("bt-inquiry"))
	res.Phases = append(res.Phases, phase("GPS failed → ad hoc", 3*time.Minute, "adHocNetwork"))
	res.ProbeEnergyJ = float64(tb.Phone.Node.Timeline().WindowEnergy("bt-inquiry")) - probeBefore
	// GPS becomes available again; the periodic BT discovery probe finds
	// it and Contory switches back.
	tb.GPS.SetFailed(false)
	res.Phases = append(res.Phases, phase("GPS recovered", 4*time.Minute, "intSensor (BT-GPS)"))

	meter.Stop()
	res.Samples = meter.Samples()
	res.Switches = tb.Factory.Switches()
	if len(res.Switches) < 2 {
		return res, fmt.Errorf("experiments: fig5 expected 2 strategy switches, saw %d", len(res.Switches))
	}
	return res, nil
}

func vclockEpoch() time.Time {
	return time.Date(2005, time.June, 10, 12, 0, 0, 0, time.UTC)
}
