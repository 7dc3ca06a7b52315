package chaos

import (
	"strings"
	"time"

	"contory/internal/radio"
)

// Switch is one strategy switch observed during a run, in a shape the
// attributor can consume without importing core (fleet prefixes Query with
// the phone ID so switches stay unique fleet-wide).
type Switch struct {
	At     time.Time
	Query  string
	Reason string
}

// Attribution is the result of matching switches to faults.
type Attribution struct {
	Switches     int
	Attributed   int
	ByKind       map[string]int // fault kind → switches it explains
	Unattributed []Switch
}

// DefaultGrace is how long after a fault clears its consequences (queued
// timeouts, backoff retries, failback to the recovered mechanism) may still
// legitimately surface as switches.
const DefaultGrace = 2 * time.Minute

// Attribute matches every switch to the earliest injected fault that can
// explain it: the switch's reason class must be in the fault's blast set
// and the switch must land inside
// [start+f.At, start+f.At+f.Duration+DefaultGrace]. Switches no fault
// explains come back in Unattributed — a chaos run where that list is
// non-empty had failovers with no injected cause.
func Attribute(start time.Time, faults []Fault, switches []Switch) Attribution {
	att := Attribution{Switches: len(switches), ByKind: make(map[string]int)}
	for _, sw := range switches {
		class := reasonClass(sw.Reason)
		matched := false
		for _, f := range faults {
			from := start.Add(f.At)
			until := from.Add(f.Duration + DefaultGrace)
			if sw.At.Before(from) || sw.At.After(until) {
				continue
			}
			if faultClasses(f)[class] {
				att.Attributed++
				att.ByKind[string(f.Kind)]++
				matched = true
				break
			}
		}
		if !matched {
			att.Unattributed = append(att.Unattributed, sw)
		}
	}
	return att
}

// reasonClass maps a switch reason (a monitor event description such as
// "failure of wifi: finder timeout" or "reducePower: battery low") onto the
// resource it implicates.
func reasonClass(reason string) string {
	r := strings.TrimPrefix(reason, "failure of ")
	r = strings.TrimPrefix(r, "recovery of ")
	if i := strings.IndexByte(r, ':'); i >= 0 {
		r = r[:i]
	}
	switch {
	case strings.HasPrefix(r, "reducePower"):
		return "battery"
	case strings.HasPrefix(r, "wifi"):
		return "wifi"
	case strings.HasPrefix(r, "umts"):
		return "umts"
	case strings.Contains(r, "gps"):
		return "gps"
	}
	return r
}

// faultClasses is the blast set of a fault: the reason classes it can
// plausibly trip. Sets are generous on purpose — a GPS outage surfaces as a
// "gps" failure on the afflicted phone, but the adhoc fallback it triggers
// can then time out ("wifi") and cascade to infra ("umts"); attribution
// answers "did an injected fault explain this switch", not "which single
// hop failed".
func faultClasses(f Fault) map[string]bool {
	switch f.Kind {
	case KindLinkFlap:
		if f.Medium == radio.MediumBT {
			return map[string]bool{"gps": true, "wifi": true}
		}
		return map[string]bool{"wifi": true}
	case KindPartition, KindDegradedRSSI, KindProviderHang:
		return map[string]bool{f.Medium.String(): true, "wifi": true}
	case KindRadioOutage, KindSlowResponse:
		return map[string]bool{f.Medium.String(): true}
	case KindProviderCrash:
		return map[string]bool{"wifi": true, "umts": true, "gps": true}
	case KindGPSOutage:
		return map[string]bool{"gps": true, "wifi": true, "umts": true}
	case KindBatteryDrain:
		return map[string]bool{"wifi": true, "umts": true, "gps": true, "battery": true}
	}
	return nil
}
