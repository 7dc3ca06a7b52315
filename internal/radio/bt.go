package radio

import (
	"time"

	"contory/internal/energy"
)

// BT models the JSR-82 Bluetooth stack of the paper's phones: inquiry-based
// device discovery, SDP service discovery against a Service Discovery
// Database, service-record registration for publishing, and RFCOMM-style
// data exchanges with packet segmentation.
type BT struct {
	sampler Sampler
}

// NewBT returns a Bluetooth model with a deterministic sampler.
func NewBT(seed int64) *BT {
	return &BT{sampler: keyedSampler(uint64(seed))}
}

// segments returns the number of BT payload segments a transfer needs.
func segments(bytes int) int {
	if bytes <= 0 {
		return 1
	}
	n := (bytes + BTPayloadBytes - 1) / BTPayloadBytes
	if n < 1 {
		n = 1
	}
	return n
}

// DeviceDiscovery returns the duration and power windows of one BT inquiry
// (≈ 13 s at inquiry power).
func (b *BT) DeviceDiscovery() (time.Duration, []PowerWindow) {
	d := b.sampler.Jittered(BTDeviceDiscoveryLatency, BTDeviceDiscoveryJitter)
	return d, []PowerWindow{{Label: "bt-inquiry", MW: BTInquiryPower, Dur: d}}
}

// ServiceDiscovery returns the duration and power windows of one SDP
// service-discovery round (≈ 1.12 s).
func (b *BT) ServiceDiscovery() (time.Duration, []PowerWindow) {
	d := b.sampler.Jittered(BTServiceDiscoveryLatency, BTServiceDiscoveryJitter)
	return d, []PowerWindow{{Label: "bt-sdp", MW: BTInquiryPower, Dur: d}}
}

// Publish returns the latency and power of registering a context item as a
// service record in the SDDB (the slow path of Table 1: 140.359 ms; the item
// must be wrapped in a DataElement and added to the ServiceRecord).
func (b *BT) Publish(bytes int) (time.Duration, []PowerWindow) {
	d := b.sampler.Jittered(BTPublishLatency, BTPublishJitter)
	return d, []PowerWindow{{Label: "bt-publish", MW: BTActivePower, Dur: d}}
}

// Get returns the latency and power windows of a one-hop item retrieval once
// discovery has happened. Latency scales mildly and the radio-active energy
// window scales linearly with segmentation.
func (b *BT) Get(bytes int) (time.Duration, []PowerWindow) {
	segs := segments(bytes)
	mean := BTGetLatency + time.Duration(segs-1)*(BTGetLatency/2)
	d := b.sampler.Jittered(mean, BTGetJitter)
	win := time.Duration(segs) * BTGetActiveWindow
	return d, []PowerWindow{{Label: "bt-get", MW: BTActivePower, Dur: win}}
}

// Provide returns the server-side cost of answering one get: 0.133 J of
// radio-active time per provided item (Table 2).
func (b *BT) Provide(bytes int) (time.Duration, []PowerWindow) {
	d := b.sampler.Jittered(BTGetLatency, BTGetJitter)
	win := time.Duration(segments(bytes)) * BTProvideActiveWindow
	return d, []PowerWindow{{Label: "bt-provide", MW: BTActivePower, Dur: win}}
}

// GPSSample returns the cost of receiving one 340-byte GPS-NMEA sample over
// an established BT link: the larger payload and BT packet segmentation keep
// the radio active longer than a plain context item (0.422 J vs 0.099 J,
// Table 2). The returned windows are shared: callers must not write them.
func (b *BT) GPSSample() (time.Duration, []PowerWindow) {
	segs := segments(GPSNMEABytes)
	mean := BTGetLatency + time.Duration(segs-1)*(BTGetLatency/2)
	d := b.sampler.Jittered(mean, BTGetJitter)
	return d, gpsSampleWindows
}

// gpsSampleWindows is the one power window of a GPS sample. It is all
// constants, so every GPSSample call (one per fix) returns this slice; it
// is read-only, and callers must not write it.
var gpsSampleWindows = []PowerWindow{{Label: "bt-gps-sample", MW: BTActivePower, Dur: BTGPSSampleWindow}}

// ScanPower is the continuous page/inquiry-scan state draw (2.72 mW over
// base idle) a device pays while its BT radio is discoverable.
func (b *BT) ScanPower() energy.Milliwatts { return energy.BTScan }
