package core

import (
	"time"

	"contory/internal/metrics"
	"contory/internal/qos"
	"contory/internal/tracing"
)

// RetryPolicy is the factory-wide recovery posture, applied uniformly to
// the per-mechanism references at construction.
type RetryPolicy struct {
	// Attempts is the total number of tries per query round (minimum 1;
	// Attempts-1 retries follow the first try).
	Attempts int
	// Timeout bounds one attempt: WiFi finder attempts whose spec carries
	// no timeout of its own, and BT SDP/get exchanges. 0 keeps each
	// mechanism's default. UMTS requests already carry per-call timeouts
	// chosen by their providers; the policy does not override those.
	Timeout time.Duration
	// Backoff delays retry k by k×Backoff (linear backoff). 0 retries
	// immediately.
	Backoff time.Duration
}

// DefaultRetryPolicy is a single attempt with mechanism-default timeouts.
var DefaultRetryPolicy = RetryPolicy{Attempts: 1}

// WithRetryPolicy sets the factory-wide retry/timeout/backoff policy.
// Attempts below 1 and negative durations are clamped.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(f *Factory) {
		if p.Attempts < 1 {
			p.Attempts = 1
		}
		if p.Timeout < 0 {
			p.Timeout = 0
		}
		if p.Backoff < 0 {
			p.Backoff = 0
		}
		f.retry = p
	}
}

// Option configures a Factory at construction time. Options replace the
// old mutate-after-construction setters: behaviour toggles are fixed when
// the factory is wired, so a factory's configuration is visible at the
// construction site and safe to read on hot paths.
type Option func(*Factory)

// WithMerging enables or disables query aggregation (§4.3). Merging is on
// by default; ablation harnesses switch it off to measure the provider
// population without aggregation.
func WithMerging(on bool) Option {
	return func(f *Factory) { f.mergeEnabled = on }
}

// WithFailover enables or disables dynamic strategy switching (Fig. 5).
// Failover is on by default.
func WithFailover(on bool) Option {
	return func(f *Factory) { f.failoverEnabled = on }
}

// WithPreferBTOneHop makes one-hop ad hoc queries prefer Bluetooth over
// WiFi from the start (the reducePower policy enforces the same preference
// at runtime when battery runs low).
func WithPreferBTOneHop(on bool) Option {
	return func(f *Factory) { f.preferBTOneHop = on }
}

// WithAnswerCache enables the answer cache of the shared provisioning
// plane: before assigning a mechanism, ProcessCxtQuery consults the device
// repository and serves queries whose FRESHNESS clause is satisfiable by
// stored items with zero provider work. Off by default: the cache changes
// which radio operations run, so harnesses opt in explicitly.
func WithAnswerCache(on bool) Option {
	return func(f *Factory) { f.cacheEnabled = on }
}

// WithCacheTTL bounds how long stored items stay servable from the answer
// cache for types without a lifetime-derived TTL (it becomes the
// repository's default TTL). Queries without a FRESHNESS clause only hit
// the cache when the type's staleness is bounded — by a learned item
// lifetime or by this TTL. d <= 0 is ignored.
func WithCacheTTL(d time.Duration) Option {
	return func(f *Factory) {
		if d > 0 {
			f.cacheTTL = d
		}
	}
}

// WithQoS enables the QoS provisioning plane with the given admission
// parameters (zero fields take the qos package defaults): per-client
// token-bucket admission, priority-lane scheduling of deferred queries,
// and graceful overload shedding. Off by default — the zero Config keeps
// the factory's legacy first-come-first-served behaviour.
func WithQoS(cfg qos.Config) Option {
	return func(f *Factory) { f.qosCfg = cfg }
}

// WithMetrics shares a metrics registry with the factory instead of the
// private one it creates by default. A World passes its own registry so
// every phone's middleware reports into one snapshot.
func WithMetrics(reg *metrics.Registry) Option {
	return func(f *Factory) {
		if reg != nil {
			f.metrics = reg
		}
	}
}

// WithTracer attaches a distributed tracer: every ProcessCxtQuery opens a
// root span and each layer the query crosses (facade dispatch, radio
// operations, SM hops, failover switches) records a child span. A nil
// tracer — the default — keeps tracing off with zero overhead, since every
// span operation is nil-safe.
func WithTracer(tr *tracing.Tracer) Option {
	return func(f *Factory) { f.tracer = tr }
}
