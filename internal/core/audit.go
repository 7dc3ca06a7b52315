package core

import "contory/internal/audit"

// This file wires the runtime invariant auditor (internal/audit) into the
// ContextFactory: thin taps at every query-lifecycle transition, timer
// arm/stop, item delivery and QoS slot movement, plus the continuous
// cross-checks of the qos-slots law. Every tap is nil-safe, so with
// auditing off (the default) these calls cost one pointer comparison.

// Audit balance names owned by the factory and its facades.
const (
	balQoSSlots   = "qos.slots"   // live-provisioning slots held
	balQoSPending = "qos.pending" // queries parked in the qos queue
)

// WithAudit attaches a runtime invariant auditor to the factory: lifecycle,
// timer, refcount and accounting taps report into it, and the qos-slots
// law is cross-checked continuously. A nil auditor — the default — keeps
// auditing off with zero overhead, since every tap is nil-safe.
func WithAudit(a *audit.Auditor) Option {
	return func(f *Factory) { f.audit = a }
}

// Auditor returns the factory's invariant auditor (nil when auditing is
// off); exposed for harnesses that assert on audit state.
func (f *Factory) Auditor() *audit.Auditor { return f.audit }

// auditStarted records a query entering the plane (under any mechanism,
// including cache and pending service). The auditor keeps the root span's
// identity as numbers and renders it only into a violation.
func (f *Factory) auditStarted(aq *activeQuery) {
	if f.audit == nil {
		return
	}
	sc := aq.span.Context()
	f.audit.QueryStarted(f.clock.Now(), string(f.dev.ID), aq.id, uint64(sc.Trace), uint64(sc.Span))
}

// auditTimerArmed / auditTimerStopped mirror every vclock timer the
// factory arms on a query; the auditor balances them per (query, kind).
func (f *Factory) auditTimerArmed(queryID, kind string) {
	f.audit.TimerArmed(f.clock.Now(), string(f.dev.ID), queryID, kind)
}

func (f *Factory) auditTimerStopped(queryID, kind string) {
	f.audit.TimerStopped(f.clock.Now(), string(f.dev.ID), queryID, kind)
}

// qosDone hands one live-provisioning slot back to the controller. A
// double release — the controller holding no slot — is surfaced as a
// counter and a strict-mode violation instead of being silently clamped.
func (f *Factory) qosDone(queryID string) {
	if !f.qos.Done() {
		f.instr.qosDoneUnderflow.Inc()
		f.audit.Violate(f.clock.Now(), string(f.dev.ID), queryID, audit.LawSlots,
			"qos slot double-release: Controller.Done() underflow", "")
		return
	}
	f.audit.Add(f.clock.Now(), string(f.dev.ID), balQoSSlots, -1)
}

// qosEnterUnstable / qosExitUnstable bracket every operation that moves
// qos slot or pending accounting (submission, dispatch, shed, degrade,
// teardown). Such operations nest — a synchronous delivery inside a
// release can finish another query — so the continuous qos-slots law is
// only checked when the outermost bracket unwinds, when the accounting is
// consistent again.
func (f *Factory) qosEnterUnstable() {
	if f.audit == nil || f.qos == nil {
		return
	}
	f.mu.Lock()
	f.qosUnstable++
	f.mu.Unlock()
}

func (f *Factory) qosExitUnstable() {
	if f.audit == nil || f.qos == nil {
		return
	}
	f.mu.Lock()
	f.qosUnstable--
	stable := f.qosUnstable == 0
	live := 0
	if stable {
		for _, aq := range f.queries {
			if aq.qosLive {
				live++
			}
		}
	}
	f.mu.Unlock()
	if !stable {
		return
	}
	now := f.clock.Now()
	dev := string(f.dev.ID)
	// Law: controller live slots == queries holding a slot (qosLive). Cache-
	// served, pending and promoted-from-cache queries hold none.
	f.audit.Expect(now, dev, "", audit.LawSlots,
		"controller active slots vs slot-holding queries", int64(f.qos.Active()), int64(live))
	// Law: the per-device pending balance — which moves 1:1 with the gauge —
	// must track Controller.Pending() exactly.
	f.audit.Expect(now, dev, "", audit.LawSlots,
		"qos.pending accounting vs Controller.Pending()",
		f.audit.BalanceValue(dev, balQoSPending), int64(f.qos.Pending()))
}
