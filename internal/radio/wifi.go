package radio

import (
	"time"
)

// WiFi models the 802.11b ad hoc medium used by the Smart Messages
// platform: per-hop execution migration with the latency break-up measured
// in §6.1 (connection establishment 4–5 %, serialization 26–33 %, thread
// switching 12–14 %, transfer 51–54 %, SM overhead negligible) and the
// 1190 mW connected-state power draw.
type WiFi struct {
	sampler Sampler
}

// NewWiFi returns a WiFi model with a deterministic sampler.
func NewWiFi(seed int64) *WiFi {
	w := KeyedWiFi(uint64(seed))
	return &w
}

// KeyedWiFi returns a WiFi model value over the draw stream of key: the
// model of one identity-keyed draw, which allocates nothing.
func KeyedWiFi(key uint64) WiFi { return WiFi{sampler: keyedSampler(key)} }

// Breakdown is the per-component split of a multi-hop SM latency.
type Breakdown struct {
	Connection time.Duration
	Serialize  time.Duration
	Thread     time.Duration
	Transfer   time.Duration
	SMOverhead time.Duration
}

// Total is the sum of all components.
func (b Breakdown) Total() time.Duration {
	return b.Connection + b.Serialize + b.Thread + b.Transfer + b.SMOverhead
}

// Publish returns the cost of publishing a context item as an SM tag:
// creating the tag and storing name/value in the tag-space hashtable
// (0.130 ms — three orders of magnitude cheaper than the BT SDDB path).
func (w *WiFi) Publish(bytes int) (time.Duration, []PowerWindow) {
	d := w.sampler.Jittered(WiFiPublishLatency, WiFiPublishJitter)
	// A tag write is a local memory operation; no radio window.
	return d, nil
}

// GetLatency samples the end-to-end latency of retrieving one item hops
// away, once the route has been built.
func (w *WiFi) GetLatency(bytes, hops int) time.Duration {
	if hops < 1 {
		hops = 1
	}
	mean := WiFiFixedLatency + time.Duration(hops)*WiFiPerHopLatency
	ci := time.Duration(hops) * WiFiGetJitterPerHop
	return w.sampler.Jittered(mean, ci)
}

// Get returns the latency and power windows of a multi-hop SM-FINDER round
// trip. The requester's WiFi radio is connected for the whole operation, so
// energy = 1190 mW × latency, reproducing Table 2's WiFi bounds.
func (w *WiFi) Get(bytes, hops int) (time.Duration, []PowerWindow) {
	d := w.GetLatency(bytes, hops)
	return d, []PowerWindow{{Label: "wifi-get", MW: WiFiConnectedPower, Dur: d}}
}

// RouteBuild returns the cost of building the multi-hop route the first
// time: approximately twice the corresponding get latency (§6.1).
func (w *WiFi) RouteBuild(bytes, hops int) (time.Duration, []PowerWindow) {
	d := time.Duration(WiFiRouteBuildFactor * float64(w.GetLatency(bytes, hops)))
	return d, []PowerWindow{{Label: "wifi-route-build", MW: WiFiConnectedPower, Dur: d}}
}

// Split decomposes a total SM latency into the measured component
// fractions.
func (w *WiFi) Split(total time.Duration) Breakdown {
	return Breakdown{
		Connection: time.Duration(SMFracConnection * float64(total)),
		Serialize:  time.Duration(SMFracSerialize * float64(total)),
		Thread:     time.Duration(SMFracThread * float64(total)),
		Transfer:   time.Duration(SMFracTransfer * float64(total)),
		SMOverhead: time.Duration(SMFracSMOverhead * float64(total)),
	}
}

// ConnectedPower is the continuous draw while the WiFi radio is connected
// at full signal (includes the back-light cost, as in the paper's
// measurements).
func (w *WiFi) ConnectedPower() float64 { return WiFiConnectedPower }

// PerHopLatency exposes the calibrated marginal hop cost (used by the SM
// runtime to schedule per-hop migrations).
func (w *WiFi) PerHopLatency() time.Duration { return WiFiPerHopLatency }

// HopLatency samples the latency of a single SM migration between two
// neighbouring nodes. The first hop of an operation carries the fixed cost.
func (w *WiFi) HopLatency(first bool) time.Duration {
	mean := WiFiPerHopLatency
	if first {
		mean += WiFiFixedLatency
	}
	return w.sampler.Jittered(mean, WiFiGetJitterPerHop)
}
