// Command fleetbench is the repository's benchmark. It runs one fleet
// workload through the public fleet.New → Engine.Run API in fresh child
// processes for about --seconds seconds, checks the outputs, and prints
// one JSON object as its last line of output: the end-to-end metrics, or
// with --trace 1 the per-layer metrics of a profiled run.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash fleetbench/run.sh --workload city-5k --seed 42 --seconds 30 --trace 0
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Iteration policy. A run measures at least minIterations children, so the
// reported host figures are medians, and starts another only while it can
// finish inside --seconds; maxWall keeps a run well inside the 180 s a run
// may take.
const (
	minIterations = 3
	maxWall       = 150 * time.Second
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", defaultSeed, "workload seed (hold-out seed: "+strconv.Itoa(holdoutSeed)+")")
		seconds  = flag.Int("seconds", 30, "how long the run measures")
		trace    = flag.Int("trace", 0, "1 reports the per-layer metrics of a profiled run")
		child    = flag.Bool("child", false, "measure one iteration and print it as JSON (internal)")
		profiled = flag.Bool("profiled", false, "with -child: profile the iteration (internal)")
	)
	flag.Parse()
	if _, ok := workloads[*workload]; !ok {
		fail(fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", ")))
	}
	if *child {
		if *profiled {
			runtime.MemProfileRate = memProfileRate
		}
		it, err := measureIteration(*workload, *seed, *profiled)
		if err != nil {
			fail(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(it); err != nil {
			fail(err)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(errors.New("--seconds must be >= 1 and --trace 0 or 1"))
	}
	res, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func init() {
	// Only the traced child samples the heap; every other process runs with
	// the profilers off. Set before anything allocates much.
	runtime.MemProfileRate = 0
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fleetbench:", err)
	os.Exit(1)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run measures one workload: the untimed paper-table check, then child
// iterations until the time budget is spent. With traced set the first
// iteration is profiled and reports the per-layer metrics; the rest give
// the untraced baseline its overhead is measured against.
func run(workload string, seed int64, budget time.Duration, traced bool) (result, error) {
	start := time.Now()
	relErr, problems, err := paperCheck(seed)
	if err != nil {
		return result{}, err
	}

	var (
		its     []iteration
		prof    *iteration
		longest time.Duration
		failed  int
	)
	for i := 0; ; i++ {
		t0 := time.Now()
		it, err := spawn(workload, seed, traced && i == 0)
		if d := time.Since(t0); d > longest {
			longest = d
		}
		switch {
		case err != nil:
			failed++
			problems = append(problems, fmt.Sprintf("iteration %d: %v", i+1, err))
		case len(it.Problems) > 0:
			failed++
			problems = append(problems, it.Problems...)
		}
		if err == nil {
			fmt.Printf("iteration %d: fingerprint %s setup %.3f s run %.3f s cpu, %.1f MiB allocated\n",
				i+1, it.Fingerprint, it.SetupCPUS, it.RunCPUS, it.RunAllocMB)
			if traced && i == 0 {
				prof = &it
			} else {
				its = append(its, it)
			}
		}
		elapsed := time.Since(start)
		if elapsed+longest > maxWall || (i+1 >= minIterations && elapsed+longest > budget) {
			break
		}
	}
	attempted := len(its) + failed
	all := its
	if prof != nil {
		attempted++
		all = append([]iteration{*prof}, its...)
	}
	// Every iteration ran the same code at the same seed: their summaries
	// must be identical.
	for _, it := range all {
		if it.Fingerprint != all[0].Fingerprint {
			problems = append(problems, fmt.Sprintf(
				"summary fingerprints differ: %s vs %s", all[0].Fingerprint, it.Fingerprint))
			break
		}
	}
	if len(all) > 0 {
		fmt.Printf("fingerprint %s seed %d: %s\n", workload, seed, all[0].Fingerprint)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "fleetbench: check failed:", p)
	}

	res := result{Correct: len(problems) == 0, Attempted: attempted, Failed: failed}
	switch {
	case len(its) == 0 || (traced && prof == nil):
		// Nothing measured: there are no figures to report.
		res.Correct = false
		res.Metrics = map[string]metric{}
	case traced:
		res.Metrics = layerMetrics(*prof, its)
	default:
		res.Metrics = endToEnd(its, relErr)
	}
	return res, nil
}

// spawn measures one iteration in a fresh child process with the default
// runtime settings and GOMAXPROCS at the machine's CPU count.
func spawn(workload string, seed int64, profiled bool) (iteration, error) {
	exe, err := os.Executable()
	if err != nil {
		return iteration{}, err
	}
	args := []string{"-child", "-workload", workload, "-seed", strconv.FormatInt(seed, 10)}
	if profiled {
		args = append(args, "-profiled")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = []string{"GOMAXPROCS=" + strconv.Itoa(runtime.NumCPU())}
	for _, kv := range os.Environ() {
		switch k, _, _ := strings.Cut(kv, "="); k {
		case "GOMAXPROCS", "GOGC", "GOMEMLIMIT", "GODEBUG":
		default:
			cmd.Env = append(cmd.Env, kv)
		}
	}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return iteration{}, fmt.Errorf("child: %w", err)
	}
	var it iteration
	if err := json.Unmarshal(stdout.Bytes(), &it); err != nil {
		return iteration{}, fmt.Errorf("child output: %w", err)
	}
	return it, nil
}

// median of a non-empty list.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf is the median of one field over iterations.
func medianOf(its []iteration, f func(iteration) float64) float64 {
	v := make([]float64, len(its))
	for i, it := range its {
		v[i] = f(it)
	}
	return median(v)
}

// endToEnd reports the end-to-end metrics: host costs as medians over the
// iterations, modeled figures (identical in every iteration) from the first.
func endToEnd(its []iteration, paperRelErr float64) map[string]metric {
	m := map[string]metric{
		"setup_s":       {medianOf(its, func(it iteration) float64 { return it.SetupCPUS }), "s"},
		"run_cpu_s":     {medianOf(its, func(it iteration) float64 { return it.RunCPUS }), "s"},
		"run_alloc_mb":  {medianOf(its, func(it iteration) float64 { return it.RunAllocMB }), "MiB"},
		"peak_rss_mb":   {medianOf(its, func(it iteration) float64 { return it.PeakRSSMB }), "MiB"},
		"paper_rel_err": {paperRelErr, "ratio"},
	}
	for _, u := range []struct{ name, unit string }{
		{"served_ratio", "ratio"},
		{"first_item_mean_vms", "vms"},
		{"items_per_vs", "items/vs"},
		{"joules_per_item", "J/item"},
	} {
		m[u.name] = metric{its[0].Modeled[u.name], u.unit}
	}
	return m
}

// layerMetrics reports the per-layer metrics: the profiled iteration's
// attribution and per-operation costs, the exact layer counters, and GC
// figures as medians over the untraced iterations.
func layerMetrics(prof iteration, its []iteration) map[string]metric {
	m := make(map[string]metric, len(perLayer))
	for _, pl := range perLayer {
		m[pl.name] = metric{0, pl.unit}
	}
	// Names the benchmark does not declare (a phase a later tracing report
	// adds, say) are left out rather than reported unannounced.
	set := func(name string, v float64) {
		if pl, ok := m[name]; ok {
			pl.Value = v
			m[name] = pl
		}
	}
	for k, v := range prof.Layers {
		set(k, v)
	}
	for k, v := range prof.Counts {
		set(k, v)
	}
	perOp := func(name, layer, count string, scale float64) {
		if n := prof.Counts[count]; n > 0 {
			set(name, prof.Layers["cpu_s."+layer]*scale/n)
		}
	}
	perOp("vclock.cpu_ns_per_event", "vclock", "vclock.events", 1e9)
	perOp("simnet.cpu_us_per_frame", "simnet", "simnet.frames_sent", 1e6)
	perOp("gps.cpu_us_per_fix", "gps", "refs.bt.gps_fixes", 1e6)
	perOp("core.cpu_us_per_query", "core", "core.submitted", 1e6)
	set("trace.overhead_ratio", prof.RunCPUS/medianOf(its, func(it iteration) float64 { return it.RunCPUS }))
	set("gc.cycles", medianOf(its, func(it iteration) float64 { return it.GCCycles }))
	set("gc.cpu_s", medianOf(its, func(it iteration) float64 { return it.GCCPUS }))
	set("gc.live_heap_mb", medianOf(its, func(it iteration) float64 { return it.LiveHeapMB }))
	return m
}
