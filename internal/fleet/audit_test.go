package fleet

import (
	"testing"

	"contory"
)

// TestFleetNoLeaks is the conservation sweep after the
// audit-dispositions run, where chaos faults, the QoS plane and the answer
// cache are all on at once so the auditor sees every disposition a query
// can take (live, cache, deferred, degraded, shed, failed over): every
// facade holds zero providers, the QoS controller holds zero slots and
// zero parked queries, and no query timer is still armed. The run must
// have actually been audited (checks > 0) and audited clean.
func TestFleetNoLeaks(t *testing.T) {
	e, err := New(loadScenario(t, "audit-dispositions"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sum, err := e.Run(4)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	a := e.Auditor()
	if a == nil {
		t.Fatal("audit enabled but engine has no auditor")
	}
	if a.Checks() == 0 {
		t.Fatal("auditor processed zero checks: taps are not wired")
	}
	for _, v := range a.Violations() {
		t.Errorf("violation: %s", v)
	}
	for _, p := range e.phones {
		for _, m := range []contory.Mechanism{
			contory.MechanismLocal, contory.MechanismAdHoc, contory.MechanismInfra,
		} {
			if n := p.Factory.Facade(m).ActiveProviders(); n != 0 {
				t.Errorf("phone %s facade %s: %d providers survived the run", p.ID(), m, n)
			}
		}
		if q := p.Factory.QoS(); q != nil {
			if q.Active() != 0 {
				t.Errorf("phone %s: %d QoS slots still held", p.ID(), q.Active())
			}
			if q.Pending() != 0 {
				t.Errorf("phone %s: %d queries still parked", p.ID(), q.Pending())
			}
			if q.Underflows() != 0 {
				t.Errorf("phone %s: %d Done() underflows", p.ID(), q.Underflows())
			}
		}
	}
	if n := a.LiveTimers(); n != 0 {
		t.Errorf("%d query timers still armed after quiesce", n)
	}
	if sum.Audit == nil {
		t.Fatal("summary carries no audit report")
	}
	if len(sum.Audit.Violations) != 0 {
		t.Errorf("summary reports %d violations", len(sum.Audit.Violations))
	}
}
