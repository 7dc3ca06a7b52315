package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
)

func TestChargeStack(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"runtime helper bills its layer caller", []string{
			"runtime.mallocgc", "runtime.newobject",
			"contory/internal/simnet.(*Network).Send",
			"contory/internal/core.(*ContextFactory).ProcessCxtQuery",
		}, "simnet"},
		{"non-layer contory package bills its layer caller", []string{
			"runtime.mapassign_faststr", "contory/internal/cxt.(*Item).Clone",
			"contory.(*Phone).ReportWeather",
			"contory/internal/provider.(*Provider).deliver",
		}, "provider"},
		{"generic method", []string{
			"contory/internal/vclock.(*heap[go.shape.*uint8]).push",
			"contory/internal/fleet.(*Engine).Run",
		}, "vclock"},
		{"background mark worker", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.systemstack", "runtime.gcBgMarkWorker", "runtime.goexit",
		}, bucketGC},
		{"no layer frame", []string{"runtime.futex", "runtime.notesleep", "runtime.mstart"}, bucketOther},
		{"package named like a layer prefix", []string{
			"contory/internal/coredump.F", "contory/internal/energy.(*Timeline).EnergyBetween",
		}, "energy"},
		{"empty stack", nil, bucketOther},
	} {
		if got := chargeStack(tc.stack); got != tc.want {
			t.Errorf("%s: charged to %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestChargeSumsBucketsAndPhases(t *testing.T) {
	samples := []sample{
		{[]string{"contory/internal/energy.(*Timeline).EnergyBetween",
			"contory/internal/fleet.(*Engine).summarize", "contory/internal/fleet.(*Engine).Run"}, 30},
		{[]string{"runtime.mallocgc", "contory/internal/audit.(*Auditor).CheckQuiesce",
			"contory/internal/fleet.(*Engine).quiesceAudit", "contory/internal/fleet.(*Engine).Run"}, 20},
		{[]string{"contory/internal/simnet.(*Network).Send", "contory/internal/vclock.(*Simulator).RunParallelUntil",
			"contory/internal/fleet.(*Engine).quiesceAudit", "contory/internal/fleet.(*Engine).Run"}, 5},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, 7},
		{[]string{"runtime.sigprof"}, 1},
	}
	buckets, phases, total := charge(samples)
	want := map[string]int64{"energy": 30, "audit": 20, "simnet": 5, bucketGC: 7, bucketOther: 1}
	var sum int64
	for b, v := range buckets {
		sum += v
		if want[b] != v {
			t.Errorf("bucket %s = %d, want %d", b, v, want[b])
		}
	}
	if sum != total || total != 63 {
		t.Errorf("buckets sum to %d, total %d, want 63", sum, total)
	}
	if phases[phaseSummarize] != 30 || phases[phaseQuiesce] != 25 {
		t.Errorf("phases = %v, want summarize 30, quiesce 25", phases)
	}
}

func TestFoldBucketsKeepsTotal(t *testing.T) {
	got := foldBuckets(map[string]int64{"sm": 5, "vclock": 3, "query": 2, bucketGC: 1}, setupLayers)
	if got["sm"] != 5 || got[bucketOther] != 5 || got[bucketGC] != 1 || got["fleet"] != 0 {
		t.Errorf("folded = %v", got)
	}
	if len(got) != len(setupLayers)+2 {
		t.Errorf("%d buckets, want %d", len(got), len(setupLayers)+2)
	}
}

//go:noinline
func allocForProfileTest(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, 64<<10)
	}
	return out
}

var keep [][]byte

// TestParseProfileReadsRuntimeHeapProfile decodes a real runtime/pprof heap
// profile and finds the allocating function with the bytes it allocated.
func TestParseProfileReadsRuntimeHeapProfile(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()

	keep = allocForProfileTest(64)
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	samples, err := parseProfile(buf.Bytes(), "alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	for _, s := range samples {
		if len(s.stack) > 0 && strings.HasSuffix(s.stack[0], ".allocForProfileTest") {
			got += s.value
		}
	}
	if want := int64(64 * 64 << 10); got < want {
		t.Errorf("allocForProfileTest allocated %d bytes in the profile, want >= %d", got, want)
	}
	if _, err := parseProfile(buf.Bytes(), "cpu"); err == nil {
		t.Error("heap profile has no cpu sample type, want an error")
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile"), "cpu"); err == nil {
		t.Error("want an error for input that is not gzip")
	}
}
