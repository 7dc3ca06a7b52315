// Command contory-load drives the fleet-scale load engine: it expands a
// scenario file into thousands of simulated phones, runs them for a span
// of virtual time across a parallel worker pool, and reports the fleet
// summary (queries/s of virtual time, delivery-latency percentiles, energy
// per device class, failover counts).
//
// A scenario is a fleet.Spec written as JSON (see fleet.ParseSpec); the
// checked-in ones live in testdata/scenarios. -phones, -seed and -duration
// override the file's values.
//
// Usage:
//
//	contory-load -spec testdata/scenarios/load.json -phones 5000 -duration 10m -stats-out fleet.json
//	contory-load -spec testdata/scenarios/trace.json -workers 8 -trace-out trace.json
//
// Same seed, same summary bytes — at any -workers value or GOMAXPROCS.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"contory/internal/fleet"
	"contory/internal/timeline"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "contory-load:", err)
		os.Exit(1)
	}
}

// options are the run's settings besides the scenario itself.
type options struct {
	workers                         int
	stats                           bool
	statsOut, traceOut, timelineOut string
}

// parseArgs reads the flags and the scenario file they name, applies the
// -phones/-seed/-duration overrides that were set, and refuses the flag
// combinations the engine cannot honour. Spec validation itself is left
// to fleet.New.
func parseArgs(args []string) (fleet.Spec, options, error) {
	var o options
	fs := flag.NewFlagSet("contory-load", flag.ContinueOnError)
	specPath := fs.String("spec", "", "scenario file: a fleet.Spec as JSON (required; see testdata/scenarios)")
	phones := fs.Int("phones", 0, "override the scenario's population size")
	seed := fs.Int64("seed", 0, "override the scenario's seed")
	duration := fs.Duration("duration", 0, "override the scenario's virtual run time")
	fs.IntVar(&o.workers, "workers", 0, "parallel event workers (0 = GOMAXPROCS)")
	fs.BoolVar(&o.stats, "stats", false, "print the full summary JSON to stdout")
	fs.StringVar(&o.statsOut, "stats-out", "", "write the run summary JSON to this file")
	fs.StringVar(&o.traceOut, "trace-out", "", "write retained traces as Chrome trace-event JSON (open in Perfetto); the scenario must enable trace")
	fs.StringVar(&o.timelineOut, "timeline-out", "", "write the flight-recorder report JSON to this file; the scenario must enable timeline")
	if err := fs.Parse(args); err != nil {
		return fleet.Spec{}, o, err
	}
	if *specPath == "" {
		return fleet.Spec{}, o, fmt.Errorf("-spec is required (scenario files live in testdata/scenarios)")
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return fleet.Spec{}, o, err
	}
	spec, err := fleet.ParseSpec(data)
	if err != nil {
		return fleet.Spec{}, o, fmt.Errorf("%s: %w", *specPath, err)
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "phones":
			spec.Phones = *phones
		case "seed":
			spec.Seed = *seed
		case "duration":
			spec.Duration = *duration
		}
	})
	if o.workers < 0 {
		return fleet.Spec{}, o, fmt.Errorf("-workers must be >= 0 (0 = GOMAXPROCS), got %d", o.workers)
	}
	if o.traceOut != "" && !spec.Trace.Enabled {
		return fleet.Spec{}, o, fmt.Errorf("-trace-out needs a scenario with trace enabled")
	}
	if o.timelineOut != "" && !spec.Timeline.Enabled {
		return fleet.Spec{}, o, fmt.Errorf("-timeline-out needs a scenario with timeline enabled")
	}
	return spec, o, nil
}

// run is the whole command: parse, run the scenario, write the requested
// artifacts. The human-readable report goes to stdout.
func run(args []string, stdout io.Writer) error {
	spec, o, err := parseArgs(args)
	if err != nil {
		return err
	}
	sum, eng, wall, err := runOne(spec, o.workers)
	if err != nil {
		return err
	}
	printSummary(stdout, sum, wall)
	if sum.Audit != nil && len(sum.Audit.Violations) > 0 {
		for _, v := range sum.Audit.Violations {
			fmt.Fprintln(os.Stderr, "contory-load: audit:", v)
		}
		return fmt.Errorf("audit found %d invariant violations", len(sum.Audit.Violations))
	}
	if o.traceOut != "" {
		data, err := eng.ChromeTrace()
		if err != nil {
			return err
		}
		if err := writeFile(o.traceOut, append(data, '\n')); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "chrome trace written to", o.traceOut)
	}
	if o.timelineOut != "" {
		js, err := json.MarshalIndent(sum.Timeline, "", "  ")
		if err != nil {
			return err
		}
		if err := writeFile(o.timelineOut, append(js, '\n')); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "timeline report written to", o.timelineOut)
	}
	if o.stats || o.statsOut != "" {
		js, err := sum.JSON()
		if err != nil {
			return err
		}
		if o.stats {
			fmt.Fprintln(stdout, string(js))
		}
		if o.statsOut != "" {
			if err := writeFile(o.statsOut, append(js, '\n')); err != nil {
				return err
			}
			fmt.Fprintln(os.Stderr, "fleet summary written to", o.statsOut)
		}
	}
	return nil
}

// runOne builds and runs one scenario, returning its summary, the engine
// (for post-run trace export) and the wall-clock time the run took.
func runOne(spec fleet.Spec, workers int) (fleet.Summary, *fleet.Engine, time.Duration, error) {
	e, err := fleet.New(spec)
	if err != nil {
		return fleet.Summary{}, nil, 0, err
	}
	start := time.Now()
	sum, err := e.Run(workers)
	if err != nil {
		return fleet.Summary{}, nil, 0, err
	}
	return sum, e, time.Since(start), nil
}

// printSummary renders the human-readable report.
func printSummary(w io.Writer, s fleet.Summary, wall time.Duration) {
	fmt.Fprintf(w, "fleet %s: %d phones, %d lanes, %.0fs virtual in %s wall\n",
		s.Name, s.Phones, s.Lanes, s.VirtualSeconds, wall.Round(time.Millisecond))
	fmt.Fprintf(w, "  queries   %d submitted (%.2f/s virtual), %d items delivered, %d failovers, %d expired, %d rejected\n",
		s.QueriesSubmitted, s.QueriesPerSec, s.ItemsDelivered, s.Failovers, s.Expired, s.Rejected)
	mechs := make([]string, 0, len(s.Latency))
	for m := range s.Latency {
		mechs = append(mechs, m)
	}
	sort.Strings(mechs)
	for _, m := range mechs {
		l := s.Latency[m]
		fmt.Fprintf(w, "  latency   %-13s p50 %.1f ms  p90 %.1f ms  p99 %.1f ms  max %.1f ms  (n=%d)\n",
			m, l.P50, l.P90, l.P99, l.Max, l.Count)
	}
	media := make([]string, 0, len(s.Frames))
	for m := range s.Frames {
		media = append(media, m)
	}
	sort.Strings(media)
	for _, m := range media {
		f := s.Frames[m]
		fmt.Fprintf(w, "  frames    %-6s sent %d delivered %d dropped %d\n", m, f.Sent, f.Delivered, f.Dropped)
	}
	classes := make([]string, 0, len(s.Energy))
	for c := range s.Energy {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		e := s.Energy[c]
		fmt.Fprintf(w, "  energy    %-10s %d phones, %.2f J mean\n", c, e.Phones, e.MeanJoules)
	}
	if s.CacheMux != nil {
		c := s.CacheMux
		fmt.Fprintf(w, "  cache     %d hits / %d misses (ratio %.2f), %d refreshes, %d promotions\n",
			c.Hits, c.Misses, c.HitRatio, c.Refreshes, c.Promotions)
		fmt.Fprintf(w, "  mux       %d attached, %d detached, %d shared streams\n",
			c.MuxAttached, c.MuxDetached, c.SharedStreams)
	}
	if s.QoS != nil {
		q := s.QoS
		fmt.Fprintf(w, "  qos       %d admitted, %d deferred (%d released), %d degraded, %d rejected, %d shed; p99 first item %.1f ms\n",
			q.Admitted, q.Deferred, q.Released, q.Degraded, q.Rejected, q.Shed, q.P99FirstItemMs)
	}
	if s.Audit != nil {
		fmt.Fprintf(w, "  audit     %d queries tracked, %d checks, %d timers live, %d violations\n",
			s.Audit.Queries, s.Audit.Checks, s.Audit.LiveTimers, len(s.Audit.Violations))
	}
	if s.Chaos != nil {
		fmt.Fprintf(w, "  chaos     %s profile: %d faults injected, %d/%d switches attributed (%d unattributed)\n",
			s.Chaos.Profile, s.Chaos.Faults, s.Chaos.Attributed, s.Chaos.Switches, s.Chaos.Unattributed)
	}
	if s.Trace != nil {
		fmt.Fprintf(w, "  tracing   %d traces started, %d retained (%d spans), %d sampled out, %d/%d traces/spans dropped\n",
			s.Trace.Started, s.Trace.Retained, s.Trace.Spans, s.Trace.SampledOut,
			s.Trace.DroppedTraces, s.Trace.DroppedSpans)
	}
	if s.Timeline != nil {
		fmt.Fprintf(w, "  %s\n", timeline.Describe(*s.Timeline))
	}
	fmt.Fprintf(w, "  executor  %d events in %d batches, %d lane groups, %d barriers\n",
		s.Events, s.Batches, s.Groups, s.Barriers)
}

// writeFile writes data, creating parent directories as needed.
func writeFile(path string, data []byte) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("create %s: %w", dir, err)
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
