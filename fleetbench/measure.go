package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"

	"contory/internal/fleet"
	cmetrics "contory/internal/metrics"
)

// workers is the simulation worker count of every run: one, so host cost
// is the cost of the simulation itself, not of its parallel speed-up.
const workers = 1

// memProfileRate is the heap sampling interval of the traced run, finer
// than the runtime's 512 KiB default so small layers get samples.
const memProfileRate = 64 << 10

const mib = 1 << 20

// iteration is what one child process measures: one fleet.New and one
// Engine.Run of a workload.
type iteration struct {
	SetupCPUS  float64 `json:"setup_cpu_s"`
	RunCPUS    float64 `json:"run_cpu_s"`
	RunAllocMB float64 `json:"run_alloc_mb"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	GCCycles   float64 `json:"gc_cycles"`
	GCCPUS     float64 `json:"gc_cpu_s"`
	LiveHeapMB float64 `json:"live_heap_mb"`
	// Fingerprint is the FNV-64a hash of Summary.JSON(): equal across runs
	// of identical code at one seed.
	Fingerprint string `json:"fingerprint"`
	// Modeled are the virtual-time end-to-end metrics, Counts the layer
	// counters; both are exact for a seed.
	Modeled map[string]float64 `json:"modeled"`
	Counts  map[string]float64 `json:"counts"`
	// Problems lists failed correctness checks.
	Problems []string `json:"problems,omitempty"`
	// Layers holds the profile attribution of a traced iteration.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// cpuSeconds is the process's user+system CPU time from getrusage: every
// thread, the GC's included, and none of the time spent waiting for a CPU.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set (ru_maxrss, KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Maxrss) / 1024
}

// gcCPUSeconds is the runtime's estimate of CPU spent in the GC so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64()
}

// measureIteration builds and runs one workload at seed in this process.
// With profiled set it also CPU-profiles fleet.New and Engine.Run and diffs
// the heap profile around Engine.Run, attributing both to layers.
func measureIteration(workload string, seed int64, profiled bool) (iteration, error) {
	var it iteration
	spec, err := workloads[workload](seed)
	if err != nil {
		return it, err
	}

	var setupProf, runProf, heap0, heap1 bytes.Buffer
	startCPU := func(buf *bytes.Buffer) error {
		if !profiled {
			return nil
		}
		return pprof.StartCPUProfile(buf)
	}
	stopCPU := func() {
		if profiled {
			pprof.StopCPUProfile()
		}
	}
	writeHeap := func(buf *bytes.Buffer) error {
		if !profiled {
			return nil
		}
		return pprof.Lookup("heap").WriteTo(buf, 0)
	}

	c0 := cpuSeconds()
	if err := startCPU(&setupProf); err != nil {
		return it, err
	}
	e, err := fleet.New(spec)
	stopCPU()
	c1 := cpuSeconds()
	if err != nil {
		return it, err
	}
	// Untimed: set-up garbage is collected before the run is measured, so
	// the run does not pay for marking it.
	runtime.GC()
	if err := writeHeap(&heap0); err != nil {
		return it, err
	}
	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()
	c2 := cpuSeconds()
	if err := startCPU(&runProf); err != nil {
		return it, err
	}
	sum, err := e.Run(workers)
	stopCPU()
	c3 := cpuSeconds()
	gc1 := gcCPUSeconds()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return it, err
	}
	// The live heap after a forced GC, with the engine still reachable.
	runtime.GC()
	runtime.ReadMemStats(&ms2)
	if err := writeHeap(&heap1); err != nil {
		return it, err
	}
	runtime.KeepAlive(e)

	it.SetupCPUS = c1 - c0
	it.RunCPUS = c3 - c2
	it.RunAllocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / mib
	it.PeakRSSMB = peakRSSMB()
	it.GCCycles = float64(ms1.NumGC - ms0.NumGC)
	it.GCCPUS = gc1 - gc0
	it.LiveHeapMB = float64(ms2.HeapAlloc) / mib

	js, err := sum.JSON()
	if err != nil {
		return it, err
	}
	h := fnv.New64a()
	h.Write(js)
	it.Fingerprint = fmt.Sprintf("%016x", h.Sum64())
	it.Modeled, it.Counts, it.Problems = readSummary(spec, sum)

	if profiled {
		it.Layers, err = attribute(setupProf.Bytes(), runProf.Bytes(), heap0.Bytes(), heap1.Bytes())
		if err != nil {
			return it, err
		}
	}
	return it, nil
}

// attribute splits the traced iteration's sampled CPU and allocations
// across layers: cpu_s.* and alloc_mb.* over Engine.Run, setup_cpu_s.* over
// fleet.New, and the CPU of the summarize and audit-quiesce phases.
func attribute(setupProf, runProf, heap0, heap1 []byte) (map[string]float64, error) {
	out := make(map[string]float64)
	run, err := parseProfile(runProf, "cpu")
	if err != nil {
		return nil, err
	}
	buckets, phases, _ := charge(run)
	for _, b := range allBuckets(layers) {
		out["cpu_s."+b] = float64(buckets[b]) / 1e9
	}
	out["phase.summarize_cpu_s"] = float64(phases[phaseSummarize]) / 1e9
	out["phase.quiesce_cpu_s"] = float64(phases[phaseQuiesce]) / 1e9

	setup, err := parseProfile(setupProf, "cpu")
	if err != nil {
		return nil, err
	}
	sb, _, _ := charge(setup)
	for b, v := range foldBuckets(sb, setupLayers) {
		out["setup_cpu_s."+b] = float64(v) / 1e9
	}

	var allocs [2]map[string]int64
	for i, heap := range [][]byte{heap0, heap1} {
		s, err := parseProfile(heap, "alloc_space")
		if err != nil {
			return nil, err
		}
		allocs[i], _, _ = charge(s)
	}
	for _, b := range allBuckets(layers) {
		out["alloc_mb."+b] = float64(allocs[1][b]-allocs[0][b]) / mib
	}
	return out, nil
}

// allBuckets is the bucket list for a layer list: the layers, gc, other.
func allBuckets(ls []string) []string {
	return append(append([]string(nil), ls...), bucketGC, bucketOther)
}

// foldBuckets keeps the named layers plus gc and other, folding every
// other bucket into other, so the result still sums to the total.
func foldBuckets(b map[string]int64, keep []string) map[string]int64 {
	out := make(map[string]int64)
	for _, k := range allBuckets(keep) {
		out[k] = 0
	}
	for k, v := range b {
		if _, ok := out[k]; ok {
			out[k] += v
		} else {
			out[bucketOther] += v
		}
	}
	return out
}

const firstItemPrefix = "core.query.first_item_latency_ms."

// minFirstItems is the fewest first items a workload must serve so that at
// least ten samples lie beyond the reported p99.
const minFirstItems = 1000

// mergeFirstItem merges every mechanism's first-item-latency histogram
// bucket-wise, as fleet's QoS report does: the histograms share one bucket
// layout, so summing cumulative bucket counts is exact.
func mergeFirstItem(snap cmetrics.Snapshot) cmetrics.HistogramPoint {
	var merged cmetrics.HistogramPoint
	for _, h := range snap.Histograms {
		if !strings.HasPrefix(h.Name, firstItemPrefix) || h.Count == 0 {
			continue
		}
		if merged.Count == 0 {
			merged = h
			merged.Buckets = append([]cmetrics.Bucket(nil), h.Buckets...)
			continue
		}
		if len(h.Buckets) != len(merged.Buckets) {
			continue
		}
		merged.Count += h.Count
		merged.Sum += h.Sum
		merged.Min = min(merged.Min, h.Min)
		merged.Max = max(merged.Max, h.Max)
		for i := range merged.Buckets {
			merged.Buckets[i].Count += h.Buckets[i].Count
		}
	}
	return merged
}

// servedRatio is the share of submitted queries that delivered a first
// item; rejected, shed and expired-before-first-item queries are failures.
func servedRatio(s fleet.Summary) float64 {
	if s.QueriesSubmitted == 0 {
		return 0
	}
	return float64(mergeFirstItem(s.Snapshot).Count) / float64(s.QueriesSubmitted)
}

// mechanisms are the provisioning mechanisms with a first-item histogram.
var mechanisms = []string{"intSensor", "adHocNetwork", "extInfra", "cache"}

// tracePhases are the latency-attribution phases of the tracing report.
var tracePhases = []string{
	"inquiry", "service-discovery", "transfer", "route-build", "finder", "migration",
	"execution", "request", "infra-handling", "connect", "stream", "read", "failover",
}

// readSummary derives the modeled end-to-end metrics and the layer
// counters from a run's summary, and checks the run's outputs.
func readSummary(spec fleet.Spec, s fleet.Summary) (modeled, counts map[string]float64, problems []string) {
	c := make(map[string]int64, len(s.Snapshot.Counters))
	for _, p := range s.Snapshot.Counters {
		c[p.Name] = p.Value
	}
	sumPrefix := func(prefix string) (n int64) {
		for name, v := range c {
			if strings.HasPrefix(name, prefix) {
				n += v
			}
		}
		return n
	}
	merged := mergeFirstItem(s.Snapshot)
	classes := make([]string, 0, len(s.Energy))
	for class := range s.Energy {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	var joules float64
	for _, class := range classes {
		joules += s.Energy[class].TotalJoules
	}

	modeled = map[string]float64{"served_ratio": servedRatio(s)}
	if merged.Count > 0 {
		modeled["first_item_mean_vms"] = merged.Sum / float64(merged.Count)
	}
	modeled["items_per_vs"] = float64(s.ItemsDelivered) / spec.Duration.Seconds()
	if s.ItemsDelivered > 0 {
		modeled["joules_per_item"] = joules / float64(s.ItemsDelivered)
	}

	counts = map[string]float64{
		"vclock.events":             float64(s.Events),
		"vclock.batches":            float64(s.Batches),
		"vclock.barriers":           float64(s.Barriers),
		"simnet.frames_sent":        float64(sumPrefix("simnet.frames.sent.")),
		"simnet.frames_dropped":     float64(sumPrefix("simnet.frames.dropped.")),
		"refs.umts.requests":        float64(c["refs.umts.requests"]),
		"refs.umts.queued":          float64(c["refs.umts.queued"]),
		"refs.umts.failures":        float64(c["refs.umts.failures"]),
		"refs.wifi.finder_queries":  float64(c["refs.wifi.finder_queries"]),
		"refs.wifi.finder_timeouts": float64(c["refs.wifi.finder_timeouts"]),
		"refs.wifi.route_builds":    float64(c["refs.wifi.route_builds"]),
		"refs.bt.gps_fixes":         float64(c["refs.bt.gps_fixes"]),
		"core.submitted":            float64(s.QueriesSubmitted),
		"core.rejected":             float64(s.Rejected),
		"core.expired":              float64(s.Expired),
		"core.failovers":            float64(s.Failovers),
		"core.first_items":          float64(merged.Count),
		"mux.attached":              float64(sumPrefix("core.mux.attached.")),
		"qos.admitted":              float64(c["qos.admitted"]),
		"qos.deferred":              float64(c["qos.deferred"]),
		"qos.degraded":              float64(c["qos.degraded"]),
		"qos.rejected":              float64(c["qos.rejected"]),
		"qos.shed":                  float64(c["qos.shed"]),
	}
	if lookups := c["core.cache.hits"] + c["core.cache.misses"]; lookups > 0 {
		counts["cache.hit_ratio"] = float64(c["core.cache.hits"]) / float64(lookups)
	}
	if merged.Count > 0 {
		counts["core.first_item_p50_vms"] = merged.Quantile(0.50)
		counts["core.first_item_p99_vms"] = merged.Quantile(0.99)
	}
	for _, h := range s.Snapshot.Histograms {
		if m, ok := strings.CutPrefix(h.Name, firstItemPrefix); ok && h.Count > 0 {
			counts["core.first_item_p99_vms."+m] = h.Quantile(0.99)
		}
	}
	if tr := s.Trace; tr != nil {
		counts["tracing.spans"] = float64(tr.Spans)
		counts["tracing.traces_dropped"] = float64(tr.DroppedTraces)
		// Each phase's share of first-item latency over every traced
		// mechanism, weighted by the traces each explains.
		var first float64
		phase := make(map[string]float64)
		for _, mb := range tr.Mechanisms {
			first += mb.MeanFirstItemMS * float64(mb.Traces)
			for _, ps := range mb.Phases {
				phase[ps.Phase] += ps.MeanMS * float64(mb.Traces)
			}
		}
		for p, v := range phase {
			if first > 0 {
				counts["tracing.phase_share."+p] = v / first
			}
		}
	}
	if ch := s.Chaos; ch != nil {
		counts["chaos.faults"] = float64(ch.Faults)
		counts["chaos.unattributed"] = float64(ch.Unattributed)
	}
	if a := s.Audit; a != nil {
		counts["audit.checks"] = float64(a.Checks)
		counts["audit.violations"] = float64(len(a.Violations))
		for i, v := range a.Violations {
			if i == 3 {
				problems = append(problems, fmt.Sprintf("... %d more audit violations", len(a.Violations)-i))
				break
			}
			problems = append(problems, fmt.Sprintf("audit violation: %v", v))
		}
	}

	if s.ItemsDelivered == 0 {
		problems = append(problems, "no items delivered")
	}
	if merged.Count < minFirstItems {
		problems = append(problems, fmt.Sprintf(
			"%d first items, fewer than %d: under ten samples beyond p99", merged.Count, minFirstItems))
	}
	return modeled, counts, problems
}
