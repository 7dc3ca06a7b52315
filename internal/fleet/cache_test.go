package fleet

import (
	"testing"
	"time"
)

// TestFleetCacheReducesRadioAndEnergy is the acceptance run for the shared
// provisioning plane on the dup-heavy scenario, where most of the fleet
// runs duplicate bursts of identical cacheable extInfra queries: at
// identical seeds, enabling the answer cache must absorb query traffic
// (nonzero hit ratio, multiplexed duplicates), send strictly fewer UMTS
// frames and drain strictly less energy — without delivering fewer
// answers.
func TestFleetCacheReducesRadioAndEnergy(t *testing.T) {
	spec := loadScenario(t, "dup-heavy")
	on, _, _ := runSpec(t, spec, 4)
	spec.Cache.Enabled = false
	off, _, _ := runSpec(t, spec, 4)

	if on.CacheMux == nil {
		t.Fatal("cache-enabled summary lacks the cache/mux report")
	}
	cm := on.CacheMux
	if cm.Hits == 0 || cm.HitRatio <= 0 {
		t.Fatalf("no cache hits: %+v", cm)
	}
	if cm.MuxAttached == 0 || cm.SharedStreams == 0 {
		t.Fatalf("no multiplexed duplicates: %+v", cm)
	}

	offUMTS, onUMTS := off.Frames["umts"].Sent, on.Frames["umts"].Sent
	if onUMTS >= offUMTS {
		t.Fatalf("UMTS frames sent: cache on %d, off %d — want strictly fewer", onUMTS, offUMTS)
	}
	var offJ, onJ float64
	for _, ce := range off.Energy {
		offJ += ce.TotalJoules
	}
	for _, ce := range on.Energy {
		onJ += ce.TotalJoules
	}
	if onJ >= offJ {
		t.Fatalf("total energy: cache on %.2f J, off %.2f J — want strictly lower", onJ, offJ)
	}
	if on.ItemsDelivered < off.ItemsDelivered {
		t.Fatalf("cache run delivered fewer items: on %d, off %d", on.ItemsDelivered, off.ItemsDelivered)
	}
}

// TestFleetCacheSpecDefaults pins the CacheSpec TTL default to twice the
// workload period.
func TestFleetCacheSpecDefaults(t *testing.T) {
	e, err := New(Spec{
		Phones: 5, Seed: 1, Duration: time.Minute,
		Workload: Workload{DupHeavy: 1, Period: 20 * time.Second},
		Cache:    CacheSpec{Enabled: true},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := e.Spec().Cache.TTL; got != 40*time.Second {
		t.Fatalf("defaulted cache TTL = %v, want 40s", got)
	}
	if _, err := New(Spec{Phones: 5, Duration: time.Minute,
		Workload: Workload{DupHeavy: -0.1}}); err == nil {
		t.Fatal("negative DupHeavy accepted")
	}
}
