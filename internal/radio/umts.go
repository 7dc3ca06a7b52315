package radio

import (
	"time"
)

// UMTS models the 2G/3G packet-data path used for external infrastructure
// provisioning: event notifications of 1696 bytes, extremely variable
// latency (703–2766 ms), an expensive connection-open power peak (1000 mW),
// a transfer phase and a long radio tail — plus the periodic GSM idle
// signalling peaks visible in Fig. 4.
type UMTS struct {
	sampler Sampler
}

// NewUMTS returns a UMTS model with a deterministic sampler.
func NewUMTS(seed int64) *UMTS {
	return &UMTS{sampler: keyedSampler(uint64(seed))}
}

// PublishLatency samples the latency of pushing one event-encapsulated item
// to the remote infrastructure (772.728 ms [158.924] — the paper notes the
// variability is "quite extreme").
func (u *UMTS) PublishLatency() time.Duration {
	return u.sampler.JitteredClamped(UMTSPublishLatency, UMTSPublishJitter,
		UMTSGetLatencyMin/2, UMTSGetLatencyMax)
}

// GetLatency samples an on-demand query round trip
// (1473 ms [275], observed range 703–2766 ms).
func (u *UMTS) GetLatency() time.Duration {
	return u.sampler.JitteredClamped(UMTSGetLatency, UMTSGetJitter,
		UMTSGetLatencyMin, UMTSGetLatencyMax)
}

// connWindows returns the power windows of one full connection cycle
// carrying a transfer phase of the given duration: connection-open peak,
// transfer, then radio tail. Total for a single item ≈ 14.076 J (Table 2).
func (u *UMTS) connWindows(transfer time.Duration) []PowerWindow {
	return []PowerWindow{
		{Label: "umts-conn-open", MW: UMTSConnOpenPower, Dur: UMTSConnOpenWindow},
		{Label: "umts-transfer", MW: UMTSTransferPower,
			Offset: UMTSConnOpenWindow, Dur: transfer},
		{Label: "umts-tail", MW: UMTSTailPower,
			Offset: UMTSConnOpenWindow + transfer, Dur: UMTSTailWindow},
	}
}

// Get returns the latency and power windows of one on-demand item retrieval
// over UMTS, including connection open and radio tail.
func (u *UMTS) Get() (time.Duration, []PowerWindow) {
	d := u.GetLatency()
	return d, u.connWindows(d)
}

// Publish returns the latency and power windows of publishing one item.
func (u *UMTS) Publish() (time.Duration, []PowerWindow) {
	d := u.PublishLatency()
	return d, u.connWindows(d)
}

// GetBatch returns the total latency and power windows of retrieving n items
// within one connection/time slot. Connection-open and tail costs are paid
// once, so per-item energy drops sharply with n — the batching effect the
// paper reports ("sending and retrieving larger groups of items in the same
// time slot largely reduces the energy consumption per item").
func (u *UMTS) GetBatch(n int) (time.Duration, []PowerWindow) {
	if n < 1 {
		n = 1
	}
	var transfer time.Duration
	for i := 0; i < n; i++ {
		// Subsequent items in an open connection skip connection setup;
		// their marginal latency is a fraction of a full round trip.
		d := u.GetLatency()
		if i > 0 {
			d /= 4
		}
		transfer += d
	}
	return transfer, u.connWindows(transfer)
}

// IdlePeak samples one GSM idle-signalling burst: its power (450–481 mW),
// duration, and the delay until the next burst (50–60 s).
func (u *UMTS) IdlePeak() (mw float64, dur, next time.Duration) {
	mw = float64(u.sampler.UniformMW(GSMIdlePeakPowerMin, GSMIdlePeakPowerMax))
	return mw, GSMIdlePeakWindow, u.sampler.UniformDur(GSMIdlePeakEveryMin, GSMIdlePeakEveryMax)
}
