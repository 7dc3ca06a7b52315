// Package fleet is Contory's load engine: it stands up thousands of
// simulated phones against the existing middleware and drives them through
// a declarative, seeded scenario — population, radio mix, mobility, query
// workload and churn all expand deterministically from the Spec.
//
// The paper evaluates Contory on a handful of Nokia phones; the fleet
// engine is what lets this repo measure context provisioning at the scale
// surveys of context middleware identify as the open problem (many
// producers, many concurrent queries). Runs execute on the parallel vclock
// batch mode via device-sharded lanes, so same-seed runs produce
// byte-identical metrics summaries at any GOMAXPROCS or worker count.
package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"

	"contory/internal/chaos"
	"contory/internal/timeline"
)

// Workload is the per-phone query mix: each fraction of the population runs
// one stream of that query archetype against its ContextFactory. Fractions
// are of the phone population and should sum to at most 1; the remainder
// stays idle (pure producers or bystanders).
type Workload struct {
	// LocalPeriodic phones run a periodic internal-sensor query
	// (SELECT temperature FROM intSensor ... EVERY ...).
	LocalPeriodic float64 `json:"local_periodic"`
	// LocalEvent phones run an event-based internal-sensor query
	// (... EVENT temperature > threshold), the push-mode workload.
	LocalEvent float64 `json:"local_event"`
	// AdHocPeriodic phones run a periodic ad hoc network query served by
	// SM-FINDER tours over WiFi (FROM adHocNetwork(all,1)).
	AdHocPeriodic float64 `json:"adhoc_periodic"`
	// InfraOneShot phones run one-shot infrastructure queries (FROM
	// extInfra), re-submitted every Period.
	InfraOneShot float64 `json:"infra_one_shot"`
	// GPSPeriodic phones run a periodic location query with no FROM
	// clause: the middleware picks the mechanism (BT-GPS when the phone
	// carries one) and may switch it under faults — the fleet-scale Fig. 5
	// workload. Pair with GPSFraction > 0.
	GPSPeriodic float64 `json:"gps_periodic"`
	// DupHeavy phones model redundant clients on the shared provisioning
	// plane: each submits a burst of identical one-shot extInfra queries
	// with a FRESHNESS bound every Period. With Spec.Cache enabled the
	// duplicates are answered from the device repository (or multiplexed
	// onto one live stream) instead of each paying a radio round trip.
	DupHeavy float64 `json:"dup_heavy"`
	// Overload phones swamp their own factory: every Period each submits a
	// burst of overloadBurst distinct-type tight-FRESHNESS one-shot
	// extInfra queries, which serialize on the phone's single UMTS data
	// channel. With Spec.QoS enabled the admission controller spreads,
	// degrades or rejects the burst instead of letting every query pay a
	// queued radio round trip. Overload phones also report the burst's
	// context types to the infrastructure each Period, so live retrievals
	// have fresh observations to return.
	Overload float64 `json:"overload"`
	// Period is the base cadence for periodic queries and one-shot
	// re-submission (default 30s). Individual phones stagger their start
	// within one Period so the fleet does not fire in lockstep.
	Period time.Duration `json:"period"`
}

// Churn configures the scripted misbehaviour of the fleet. All churn
// events are precomputed from the seed at build time and injected as
// global barrier events, so they never race device work.
type Churn struct {
	// LeaveJoinPerMin is the per-phone probability, evaluated each virtual
	// minute, of toggling ad hoc network participation (§5.2 Leave/Join).
	LeaveJoinPerMin float64 `json:"leave_join_per_min"`
	// LinkFailuresPerMin is the expected number of WiFi link failures
	// injected fleet-wide each virtual minute; each failed link recovers
	// after FailDuration.
	LinkFailuresPerMin float64 `json:"link_failures_per_min"`
	// FailDuration is how long an injected link failure lasts (default 30s).
	FailDuration time.Duration `json:"fail_duration"`
}

// ChaosSpec opts a run into seeded fault injection (internal/chaos): a
// named profile expands into a deterministic fault schedule over the
// population, and the summary reports how many strategy switches each
// injected fault explains.
type ChaosSpec struct {
	// Profile names one of chaos.Profiles ("" disables injection).
	Profile string `json:"profile"`
	// Rate scales the profile's per-kind fault rates (default 1).
	Rate float64 `json:"rate"`
	// Grace is how long after a fault clears its consequences may still be
	// attributed to it (default chaos.DefaultGrace).
	Grace time.Duration `json:"grace"`
}

// CacheSpec opts a run into the shared provisioning plane's answer cache:
// every phone factory is built with the cache on, so queries satisfiable by
// stored context are answered with zero provider (and zero radio) work.
type CacheSpec struct {
	// Enabled turns the per-phone answer cache on fleet-wide.
	Enabled bool `json:"enabled"`
	// TTL bounds cache staleness for context types whose items carry no
	// lifetime (default 2×Workload.Period).
	TTL time.Duration `json:"ttl"`
}

// QoSSpec opts a run into the QoS provisioning plane: every phone factory
// is built with admission control, deadline-aware scheduling of deferred
// queries, and deterministic overload shedding.
type QoSSpec struct {
	// Enabled turns the QoS plane on fleet-wide.
	Enabled bool `json:"enabled"`
	// Rate is each client's sustained admission rate in queries/sec
	// (default 1).
	Rate float64 `json:"rate"`
	// Burst is the token-bucket depth (default 2).
	Burst int `json:"burst"`
	// QueueCap bounds the factory-wide pending queue (default 32).
	QueueCap int `json:"queue_cap"`
	// MaxActive bounds concurrently-live provisioned queries (default 4).
	MaxActive int `json:"max_active"`
}

// AuditSpec opts a run into continuous runtime invariant auditing: one
// shared auditor receives lifecycle, slot, refcount, timer and accounting
// taps from every phone's middleware and from the SM platform, verifies
// the plane's conservation laws during the run, and sweeps for leaks at
// quiescence (after every factory is closed). The summary gains an Audit
// report; violations are vclock-ordered and byte-identical at any worker
// count.
type AuditSpec struct {
	// Enabled turns auditing on fleet-wide (strict: harnesses should fail
	// the run on any violation).
	Enabled bool `json:"enabled"`
}

// TraceSpec opts a run into deterministic distributed tracing: every query
// grows a vclock-stamped span tree and the summary gains a latency
// attribution report. The zero value disables tracing.
type TraceSpec struct {
	// Enabled turns tracing on.
	Enabled bool `json:"enabled"`
	// Sample keeps one trace in Sample by trace-ID residue (<= 1 keeps
	// every trace).
	Sample int `json:"sample"`
	// HeadCap / TailCap bound the per-run trace store: the earliest
	// HeadCap and latest TailCap finished traces are retained (0 = 128).
	HeadCap int `json:"head_cap"`
	TailCap int `json:"tail_cap"`
}

// TimelineSpec opts a run into the flight recorder: the world-wide metrics
// registry is sampled every Interval of virtual time into delta-windows
// (counters as rates, gauges as last-values, latency histograms as
// per-window quantile points), SLOs are evaluated per window with
// multi-window burn-rate alerting, and the summary gains a Timeline report
// whose alerts carry chaos-fault and audit-violation cause attribution.
// Sampling ticks are global barrier events, so the report is byte-identical
// at any worker count.
type TimelineSpec struct {
	// Enabled turns the flight recorder on.
	Enabled bool `json:"enabled"`
	// Interval is the sampling window length (default 10s of virtual time).
	Interval time.Duration `json:"interval"`
	// SLOs are the objectives evaluated per window. An SLO without a Name
	// is named after its objective, e.g. "p99_first_item_ms<5000".
	SLOs []timeline.SLO `json:"slos,omitempty"`
	// MaxWindows bounds the retained window ring (default 512).
	MaxWindows int `json:"max_windows"`
	// BurnShort / BurnLong / BurnRate tune the alerting gate (defaults
	// 1 / 6 / 0.5): fire when the last BurnShort windows all violate and
	// the violating fraction over the BurnLong lookback reaches BurnRate.
	BurnShort int     `json:"burn_short"`
	BurnLong  int     `json:"burn_long"`
	BurnRate  float64 `json:"burn_rate"`
}

// config lowers the spec into the recorder's configuration.
func (t TimelineSpec) config() timeline.Config {
	return timeline.Config{
		Interval:   t.Interval,
		MaxWindows: t.MaxWindows,
		SLOs:       t.SLOs,
		BurnShort:  t.BurnShort,
		BurnLong:   t.BurnLong,
		BurnRate:   t.BurnRate,
	}
}

// RadioMix partitions the population into device classes. Fractions are
// normalized; zero-value means everything Dual.
type RadioMix struct {
	// Dual phones have WiFi ad hoc and a UMTS link to the infrastructure.
	Dual float64 `json:"dual"`
	// WiFiOnly phones have no infrastructure link (NoInfra).
	WiFiOnly float64 `json:"wifi_only"`
	// UMTSOnly phones switch their WiFi radio off and leave the ad hoc
	// network, relying on the infrastructure alone.
	UMTSOnly float64 `json:"umts_only"`
}

// Class names used in summaries.
const (
	ClassDual     = "dual"
	ClassWiFiOnly = "wifi-only"
	ClassUMTSOnly = "umts-only"
)

// Spec declaratively describes one fleet scenario. Everything expands
// deterministically from Seed.
type Spec struct {
	// Name labels the scenario in summaries.
	Name string `json:"name"`
	// Phones is the population size (required).
	Phones int `json:"phones"`
	// Seed drives every random expansion (positions, velocities, workload
	// assignment, churn schedule).
	Seed int64 `json:"seed"`
	// Duration is the virtual time to run (required).
	Duration time.Duration `json:"duration"`

	// AreaMetres is the side of the square deployment area. 0 sizes the
	// area so the average WiFi neighborhood holds ~10 phones.
	AreaMetres float64 `json:"area_metres"`
	// WiFiRangeM / BTRangeM are the range-based connectivity radii
	// (defaults 50 m / 10 m).
	WiFiRangeM float64 `json:"wifi_range_m"`
	BTRangeM   float64 `json:"bt_range_m"`

	// Lanes is the device-shard count for parallel execution (default
	// min(Phones, 4×GOMAXPROCS ceiling of 64); 1 forces effectively serial
	// batches while keeping the same deterministic schedule).
	Lanes int `json:"lanes"`

	// MobilitySpeedMS is the maximum walking speed; each phone gets a
	// seeded constant velocity in [-v, v] per axis (0 disables mobility).
	MobilitySpeedMS float64 `json:"mobility_speed_ms"`
	// MobilityTick is the velocity-integration interval (default 10s).
	MobilityTick time.Duration `json:"mobility_tick"`

	// PublisherFraction of phones publish context: a WiFi tag at setup and
	// a periodic weather report to the infrastructure (default 0.2).
	PublisherFraction float64 `json:"publisher_fraction"`
	// GPSFraction of phones carry a BT-GPS receiver (default 0).
	GPSFraction float64 `json:"gps_fraction"`

	Radio    RadioMix     `json:"radio"`
	Workload Workload     `json:"workload"`
	Churn    Churn        `json:"churn"`
	Chaos    ChaosSpec    `json:"chaos"`
	Trace    TraceSpec    `json:"trace"`
	Cache    CacheSpec    `json:"cache"`
	QoS      QoSSpec      `json:"qos"`
	Audit    AuditSpec    `json:"audit"`
	Timeline TimelineSpec `json:"timeline"`
}

// withDefaults returns a copy with all defaults applied.
func (s Spec) withDefaults() Spec {
	if s.Name == "" {
		s.Name = "fleet"
	}
	if s.WiFiRangeM <= 0 {
		s.WiFiRangeM = 50
	}
	if s.BTRangeM <= 0 {
		s.BTRangeM = 10
	}
	if s.AreaMetres <= 0 {
		// Average ~10 phones per WiFi disc: area = phones · πr²/10.
		s.AreaMetres = sqrt(float64(s.Phones) * 3.14159 * s.WiFiRangeM * s.WiFiRangeM / 10)
		if s.AreaMetres < 4*s.WiFiRangeM {
			s.AreaMetres = 4 * s.WiFiRangeM
		}
	}
	if s.Lanes <= 0 {
		s.Lanes = 64
		if s.Phones < s.Lanes {
			s.Lanes = s.Phones
		}
	}
	if s.MobilityTick <= 0 {
		s.MobilityTick = 10 * time.Second
	}
	if s.Workload.Period <= 0 {
		s.Workload.Period = 30 * time.Second
	}
	if s.Workload.LocalPeriodic == 0 && s.Workload.LocalEvent == 0 &&
		s.Workload.AdHocPeriodic == 0 && s.Workload.InfraOneShot == 0 &&
		s.Workload.GPSPeriodic == 0 && s.Workload.DupHeavy == 0 &&
		s.Workload.Overload == 0 {
		s.Workload = Workload{
			LocalPeriodic: 0.30,
			LocalEvent:    0.10,
			AdHocPeriodic: 0.20,
			InfraOneShot:  0.20,
			Period:        s.Workload.Period,
		}
	}
	if s.Radio.Dual == 0 && s.Radio.WiFiOnly == 0 && s.Radio.UMTSOnly == 0 {
		s.Radio = RadioMix{Dual: 0.7, WiFiOnly: 0.2, UMTSOnly: 0.1}
	}
	if s.PublisherFraction == 0 {
		s.PublisherFraction = 0.2
	}
	if s.Churn.FailDuration <= 0 {
		s.Churn.FailDuration = 30 * time.Second
	}
	if s.Chaos.Profile != "" {
		if s.Chaos.Rate <= 0 {
			s.Chaos.Rate = 1
		}
		if s.Chaos.Grace <= 0 {
			s.Chaos.Grace = chaos.DefaultGrace
		}
	}
	if s.Cache.Enabled && s.Cache.TTL <= 0 {
		s.Cache.TTL = 2 * s.Workload.Period
	}
	if s.Timeline.Enabled && s.Timeline.Interval <= 0 {
		s.Timeline.Interval = 10 * time.Second
	}
	return s
}

// validate rejects a spec New cannot run as written. It runs before
// withDefaults, so a negative knob is refused rather than replaced by its
// default: zero is the only value that selects a default.
func (s Spec) validate() error {
	if s.Phones <= 0 {
		return fmt.Errorf("fleet: phones must be > 0, got %d", s.Phones)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("fleet: duration must be > 0, got %v", s.Duration)
	}
	type knob struct {
		field string
		v     float64
	}
	for _, d := range []struct {
		field string
		v     time.Duration
	}{
		{"mobility_tick", s.MobilityTick},
		{"workload.period", s.Workload.Period},
		{"churn.fail_duration", s.Churn.FailDuration},
		{"chaos.grace", s.Chaos.Grace},
		{"cache.ttl", s.Cache.TTL},
		{"timeline.interval", s.Timeline.Interval},
	} {
		if d.v < 0 {
			return fmt.Errorf("fleet: %s must be >= 0, got %v", d.field, d.v)
		}
	}
	for _, k := range []knob{
		{"area_metres", s.AreaMetres},
		{"wifi_range_m", s.WiFiRangeM},
		{"bt_range_m", s.BTRangeM},
		{"lanes", float64(s.Lanes)},
		{"mobility_speed_ms", s.MobilitySpeedMS},
		{"churn.link_failures_per_min", s.Churn.LinkFailuresPerMin},
		{"chaos.rate", s.Chaos.Rate},
		{"trace.head_cap", float64(s.Trace.HeadCap)},
		{"trace.tail_cap", float64(s.Trace.TailCap)},
		{"qos.rate", s.QoS.Rate},
		{"qos.burst", float64(s.QoS.Burst)},
		{"qos.queue_cap", float64(s.QoS.QueueCap)},
		{"qos.max_active", float64(s.QoS.MaxActive)},
		{"timeline.max_windows", float64(s.Timeline.MaxWindows)},
		{"timeline.burn_short", float64(s.Timeline.BurnShort)},
		{"timeline.burn_long", float64(s.Timeline.BurnLong)},
		{"timeline.burn_rate", s.Timeline.BurnRate},
	} {
		if k.v < 0 {
			return fmt.Errorf("fleet: %s must be >= 0, got %v", k.field, k.v)
		}
	}
	for _, k := range []knob{
		{"workload.local_periodic", s.Workload.LocalPeriodic},
		{"workload.local_event", s.Workload.LocalEvent},
		{"workload.adhoc_periodic", s.Workload.AdHocPeriodic},
		{"workload.infra_one_shot", s.Workload.InfraOneShot},
		{"workload.gps_periodic", s.Workload.GPSPeriodic},
		{"workload.dup_heavy", s.Workload.DupHeavy},
		{"workload.overload", s.Workload.Overload},
		{"publisher_fraction", s.PublisherFraction},
		{"gps_fraction", s.GPSFraction},
		{"radio.dual", s.Radio.Dual},
		{"radio.wifi_only", s.Radio.WiFiOnly},
		{"radio.umts_only", s.Radio.UMTSOnly},
		{"churn.leave_join_per_min", s.Churn.LeaveJoinPerMin},
	} {
		if k.v < 0 || k.v > 1 {
			return fmt.Errorf("fleet: %s must be a fraction in [0, 1], got %v", k.field, k.v)
		}
	}
	if s.Lanes > s.Phones {
		// Lanes are scheduler shards indexed by a hash modulo Lanes: more
		// lanes than phones only allocates empty shards.
		return fmt.Errorf("fleet: lanes must be <= phones (%d), got %d", s.Phones, s.Lanes)
	}
	wl := s.Workload.LocalPeriodic + s.Workload.LocalEvent + s.Workload.AdHocPeriodic +
		s.Workload.InfraOneShot + s.Workload.GPSPeriodic + s.Workload.DupHeavy +
		s.Workload.Overload
	if wl > 1.0001 {
		return fmt.Errorf("fleet: workload fractions sum to %.2f > 1", wl)
	}
	if s.Chaos.Profile != "" {
		if _, ok := chaos.Profiles[s.Chaos.Profile]; !ok {
			return fmt.Errorf("fleet: unknown chaos profile %q (have %v)", s.Chaos.Profile, chaos.ProfileNames())
		}
	}
	if s.Timeline.Enabled {
		if err := s.Timeline.config().Validate(); err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
	}
	return nil
}

// ParseSpec decodes one scenario file: a JSON object keyed by Spec's JSON
// field names, with durations written as Go duration strings ("3m", "30s")
// and SLOs in timeline.SLO's JSON form. Decoding is strict: an unknown or
// miscased field, a duration that is not a duration string, and anything
// after the object are errors that name the problem. Defaults and range
// checks stay New's job, so New may still refuse a parsed Spec.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return Spec{}, fmt.Errorf("fleet: spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, fmt.Errorf("fleet: spec: trailing data after the JSON object")
	}
	tree, err := normalize(tree, reflect.TypeOf(Spec{}), "spec")
	if err != nil {
		return Spec{}, fmt.Errorf("fleet: %w", err)
	}
	norm, err := json.Marshal(tree)
	if err != nil {
		return Spec{}, fmt.Errorf("fleet: spec: %w", err)
	}
	var s Spec
	if err := json.Unmarshal(norm, &s); err != nil {
		return Spec{}, fmt.Errorf("fleet: spec: %w", err)
	}
	return s, nil
}

var durationType = reflect.TypeOf(time.Duration(0))

// normalize checks a decoded JSON value against the Go type it will fill
// and returns the value encoding/json can decode into that type: every
// object key must be exactly one of the struct's JSON field names, and
// every duration must be a duration string, which becomes its nanosecond
// count. Any other mismatch of JSON kind and Go type is left for
// encoding/json to report.
func normalize(v any, t reflect.Type, path string) (any, error) {
	switch {
	case t == durationType:
		str, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("%s: want a duration string such as \"30s\", got %v", path, v)
		}
		d, err := time.ParseDuration(str)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return json.Number(strconv.FormatInt(int64(d), 10)), nil
	case t.Kind() == reflect.Struct:
		obj, ok := v.(map[string]any)
		if !ok {
			return v, nil
		}
		fields := make(map[string]reflect.Type, t.NumField())
		for i := 0; i < t.NumField(); i++ {
			name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
			fields[name] = t.Field(i).Type
		}
		keys := make([]string, 0, len(obj))
		for k := range obj {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ft, ok := fields[k]
			if !ok {
				return nil, fmt.Errorf("%s: unknown field %q", path, k)
			}
			nv, err := normalize(obj[k], ft, path+"."+k)
			if err != nil {
				return nil, err
			}
			obj[k] = nv
		}
	case t.Kind() == reflect.Slice:
		arr, _ := v.([]any)
		for i, e := range arr {
			nv, err := normalize(e, t.Elem(), fmt.Sprintf("%s[%d]", path, i))
			if err != nil {
				return nil, err
			}
			arr[i] = nv
		}
	}
	return v, nil
}

// sqrt avoids importing math for one call site.
func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	x := v
	for i := 0; i < 64; i++ {
		x = (x + v/x) / 2
	}
	return x
}
