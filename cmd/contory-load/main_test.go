package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinySpec is a scenario small enough to run end to end in milliseconds.
const tinySpec = `{"name": "tiny", "phones": 10, "seed": 5, "duration": "1m"}`

// TestValidateFlags drives the whole command over small scenario files:
// a valid invocation runs and writes its summary, and each invalid one is
// refused with an error naming the offending flag or spec field. Range
// checks on the scenario come from fleet.New; the command itself checks
// only -spec, -workers and what an audited scenario may be combined with.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		spec    string // scenario file content; "" passes no -spec
		args    []string
		wantErr string // "" = valid
	}{
		{name: "defaults", spec: tinySpec},
		{name: "explicit workers", spec: tinySpec, args: []string{"-workers", "8"}},
		{name: "qos overload run", spec: `{"phones": 10, "duration": "1m",
			"workload": {"overload": 1}, "qos": {"enabled": true, "rate": 0.5}}`},
		{name: "zero phones", spec: tinySpec, args: []string{"-phones", "0"}, wantErr: "phones"},
		{name: "negative phones", spec: tinySpec, args: []string{"-phones", "-5"}, wantErr: "phones"},
		{name: "zero duration", spec: tinySpec, args: []string{"-duration", "0"}, wantErr: "duration"},
		{name: "negative duration", spec: tinySpec, args: []string{"-duration", "-1s"}, wantErr: "duration"},
		{name: "negative workers", spec: tinySpec, args: []string{"-workers", "-1"}, wantErr: "-workers"},
		{name: "negative qos rate", spec: `{"phones": 10, "duration": "1m",
			"qos": {"enabled": true, "rate": -0.1}}`, wantErr: "qos.rate"},
		{name: "overload above one", spec: `{"phones": 10, "duration": "1m",
			"workload": {"overload": 1.5}}`, wantErr: "workload.overload"},
		{name: "negative overload", spec: `{"phones": 10, "duration": "1m",
			"workload": {"overload": -0.2}}`, wantErr: "workload.overload"},
		{name: "audited run", spec: `{"phones": 10, "duration": "1m", "audit": {"enabled": true}}`},
		{name: "audited sweep", spec: `{"phones": 10, "duration": "1m", "audit": {"enabled": true}}`,
			args: []string{"-sweep", "10,20"}, wantErr: "audited"},
		{name: "audited bench", spec: `{"phones": 10, "duration": "1m", "audit": {"enabled": true}}`,
			args: []string{"-bench-out", "BENCH.json"}, wantErr: "audited"},
		{name: "unaudited sweep", spec: tinySpec, args: []string{"-sweep", "10,20"}},
		{name: "timeline run", spec: `{"phones": 10, "duration": "1m",
			"timeline": {"enabled": true, "interval": "10s"}}`},
		{name: "timeline zero interval", spec: `{"phones": 10, "duration": "1m",
			"timeline": {"enabled": true}}`},
		{name: "timeline negative interval", spec: `{"phones": 10, "duration": "1m",
			"timeline": {"enabled": true, "interval": "-1s"}}`, wantErr: "timeline.interval"},
		{name: "timeline off ignores interval", spec: `{"phones": 10, "duration": "1m",
			"timeline": {"interval": "30s"}}`},
		{name: "missing spec", wantErr: "-spec"},
		{name: "unknown field", spec: `{"phone": 10, "duration": "1m"}`, wantErr: `"phone"`},
		{name: "bad duration", spec: `{"phones": 10, "duration": "1 minute"}`, wantErr: "spec.duration"},
		{name: "trace-out needs tracing", spec: tinySpec, args: []string{"-trace-out", "trace.json"}, wantErr: "-trace-out"},
		{name: "timeline-out needs timeline", spec: tinySpec, args: []string{"-timeline-out", "tl.json"}, wantErr: "-timeline-out"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := []string{"-stats-out", filepath.Join(dir, "sum.json")}
			if tc.spec != "" {
				path := filepath.Join(dir, "spec.json")
				if err := os.WriteFile(path, []byte(tc.spec), 0o644); err != nil {
					t.Fatal(err)
				}
				args = append(args, "-spec", path)
			}
			for _, a := range tc.args {
				if strings.HasSuffix(a, ".json") {
					a = filepath.Join(dir, a)
				}
				args = append(args, a)
			}
			err := run(args, io.Discard)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("run: unexpected error %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("run accepted invalid input %v", args)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name %q", err, tc.wantErr)
			}
		})
	}
}

// TestOverridesApplied checks that -phones, -seed and -duration replace
// the scenario file's values and leave the rest of it alone.
func TestOverridesApplied(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	out := filepath.Join(dir, "sum.json")
	if err := os.WriteFile(spec, []byte(tinySpec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", spec, "-phones", "7", "-seed", "3", "-duration", "30s", "-stats-out", out}, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var sum struct {
		Name           string  `json:"name"`
		Phones         int     `json:"phones"`
		Seed           int64   `json:"seed"`
		VirtualSeconds float64 `json:"virtual_seconds"`
	}
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Name != "tiny" || sum.Phones != 7 || sum.Seed != 3 || sum.VirtualSeconds != 30 {
		t.Fatalf("summary %+v, want name tiny, 7 phones, seed 3, 30 virtual seconds", sum)
	}
}
