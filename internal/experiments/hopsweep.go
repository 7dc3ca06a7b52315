package experiments

import (
	"fmt"
	"time"

	"contory/internal/cxt"
	"contory/internal/energy"
	"contory/internal/radio"
	"contory/internal/simnet"
	"contory/internal/sm"
	"contory/internal/trace"
	"contory/internal/vclock"
)

// HopSweepRow is one row of the hop-count extension experiment.
type HopSweepRow struct {
	Hops      int
	LatencyMs Stat
	EnergyJ   Stat
}

// HopSweepResult extends Table 1/2 from the paper's 1–2 hop measurements
// to a deeper chain, and locates where multi-hop WiFi provisioning starts
// losing to the UMTS infrastructure — the crossovers that govern Contory's
// mechanism choice.
type HopSweepResult struct {
	Rows []HopSweepRow
	// UMTSLatencyMs / UMTSEnergyJ are the extInfra single-item references.
	UMTSLatencyMs float64
	UMTSEnergyJ   float64
	// LatencyCrossoverHops is the smallest hop count whose WiFi latency
	// exceeds the UMTS average (0 = never within the sweep).
	LatencyCrossoverHops int
	// EnergyCrossoverHops likewise for energy.
	EnergyCrossoverHops int
}

// String renders the sweep.
func (r HopSweepResult) String() string {
	t := &trace.Table{
		Title:   "Hop sweep (extension): WiFi ad hoc getCxtItem vs hops, against UMTS",
		Headers: []string{"Hops", "Latency (ms)", "Energy (J)"},
	}
	for _, row := range r.Rows {
		t.Add(fmt.Sprintf("%d", row.Hops), row.LatencyMs.String(), row.EnergyJ.String())
	}
	t.Add("UMTS", fmt.Sprintf("%.3f", r.UMTSLatencyMs), fmt.Sprintf("%.3f", r.UMTSEnergyJ))
	out := t.String()
	lat := "beyond the sweep"
	if r.LatencyCrossoverHops > 0 {
		lat = fmt.Sprintf("%d hops", r.LatencyCrossoverHops)
	}
	en := "beyond the sweep"
	if r.EnergyCrossoverHops > 0 {
		en = fmt.Sprintf("%d hops", r.EnergyCrossoverHops)
	}
	out += fmt.Sprintf("\nlatency crossover vs UMTS: %s    energy crossover vs UMTS: %s\n", lat, en)
	return out
}

// HopSweep measures SM-FINDER retrievals over WiFi chains of 1..maxHops
// hops (route pre-built) and compares them with on-demand UMTS retrieval.
func HopSweep(maxHops, rounds int, seed int64) (HopSweepResult, error) {
	if maxHops <= 0 {
		maxHops = 5
	}
	if rounds <= 0 {
		rounds = 5
	}
	var res HopSweepResult

	for hops := 1; hops <= maxHops; hops++ {
		lat, en, err := measureChain(hops, rounds, seed+int64(hops))
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, HopSweepRow{Hops: hops, LatencyMs: lat, EnergyJ: en})
	}

	// UMTS reference from the calibrated model (on-demand single item).
	u := radio.NewUMTS(seed + 99)
	var latSum, enSum float64
	for i := 0; i < 200; i++ {
		d, ws := u.Get()
		latSum += float64(d) / float64(time.Millisecond)
		enSum += float64(radio.TotalEnergy(ws))
	}
	res.UMTSLatencyMs = latSum / 200
	res.UMTSEnergyJ = enSum / 200

	for _, row := range res.Rows {
		if res.LatencyCrossoverHops == 0 && row.LatencyMs.Avg > res.UMTSLatencyMs {
			res.LatencyCrossoverHops = row.Hops
		}
		if res.EnergyCrossoverHops == 0 && row.EnergyJ.Avg > res.UMTSEnergyJ {
			res.EnergyCrossoverHops = row.Hops
		}
	}
	return res, nil
}

// measureChain builds an (hops+1)-node WiFi chain and measures round
// trips to the far end.
func measureChain(hops, rounds int, seed int64) (lat, en Stat, err error) {
	clk := vclock.NewSimulator()
	nw := simnet.New(clk)
	ids := make([]simnet.NodeID, hops+1)
	for i := range ids {
		ids[i] = simnet.NodeID(fmt.Sprintf("n%d", i))
		if _, err := nw.AddNode(ids[i], simnet.Position{}); err != nil {
			return lat, en, err
		}
	}
	for i := 1; i < len(ids); i++ {
		if err := nw.Connect(ids[i-1], ids[i], radio.MediumWiFi); err != nil {
			return lat, en, err
		}
	}
	p := sm.NewPlatform(nw, seed)
	for _, id := range ids {
		if _, err := p.Install(id, sm.Admission{}); err != nil {
			return lat, en, err
		}
	}
	far := p.Runtime(ids[len(ids)-1])
	far.Tags().Update(sm.Tag{Name: "light", Value: cxt.Item{
		Type: cxt.TypeLight, Value: 420.0, Timestamp: clk.Now(),
	}})
	origin := nw.Node(ids[0])

	var lats, ens []float64
	for i := 0; i < rounds+1; i++ {
		start := clk.Now()
		baseline := float64(origin.Timeline().Power())
		var drawn energy.Interval
		origin.Timeline().Open(&drawn)
		var doneAt time.Time
		err := p.LaunchFinder(ids[0], sm.FinderSpec{
			TagName: "light", MaxHops: hops, Timeout: time.Hour,
		}, func(rs []sm.Result, err error) {
			drawn.Close()
			if err == nil && len(rs) > 0 {
				doneAt = clk.Now()
			}
		})
		if err != nil {
			return lat, en, err
		}
		clk.Run(0)
		if doneAt.IsZero() {
			return lat, en, fmt.Errorf("experiments: hop sweep (%d hops) round %d stalled", hops, i)
		}
		if i == 0 {
			continue // code-cache warm-up round
		}
		dur := doneAt.Sub(start)
		lats = append(lats, float64(dur)/float64(time.Millisecond))
		e := float64(drawn.Joules()) - baseline/1000*dur.Seconds()
		ens = append(ens, e)
	}
	return newStat(lats), newStat(ens), nil
}
