// Package radio provides the calibrated Bluetooth, WiFi (Smart Messages)
// and UMTS radio models of the simulated smart-phone testbed. Each model
// turns an abstract operation ("publish a 136-byte item", "fetch an item two
// hops away") into a latency sample and a set of power windows. Latency
// samples are drawn from seeded distributions so runs are deterministic and
// confidence intervals can be recomputed; power windows are applied to a
// device's energy.Timeline by the caller.
package radio

import (
	"fmt"
	"time"

	"contory/internal/draw"
	"contory/internal/energy"
)

// Medium identifies a communication medium of the testbed.
type Medium int

// Media supported by the simulated devices.
const (
	MediumInternal Medium = iota + 1
	MediumBT
	MediumWiFi
	MediumUMTS
)

// String implements fmt.Stringer.
func (m Medium) String() string {
	switch m {
	case MediumInternal:
		return "internal"
	case MediumBT:
		return "bt"
	case MediumWiFi:
		return "wifi"
	case MediumUMTS:
		return "umts"
	default:
		return fmt.Sprintf("medium(%d)", int(m))
	}
}

// ParseMedium converts a string (as used in query FROM clauses and CLI
// flags) to a Medium.
func ParseMedium(s string) (Medium, error) {
	switch s {
	case "internal":
		return MediumInternal, nil
	case "bt", "bluetooth":
		return MediumBT, nil
	case "wifi", "wlan":
		return MediumWiFi, nil
	case "umts", "2g/3g", "gprs":
		return MediumUMTS, nil
	default:
		return 0, fmt.Errorf("radio: unknown medium %q", s)
	}
}

// PowerWindow is a transient power contribution produced by an operation.
// Offset is relative to the operation start.
type PowerWindow struct {
	Label  string
	MW     energy.Milliwatts
	Offset time.Duration
	Dur    time.Duration
}

// Apply adds every window to the timeline, anchored at start.
func ApplyWindows(tl *energy.Timeline, start time.Time, ws []PowerWindow) {
	for _, w := range ws {
		tl.AddWindowAt(w.Label, w.MW, start.Add(w.Offset), w.Dur)
	}
}

// TotalEnergy returns the energy of a window set in Joules.
func TotalEnergy(ws []PowerWindow) energy.Joules {
	var j energy.Joules
	for _, w := range ws {
		j += energy.Joules(float64(w.MW) / 1000 * w.Dur.Seconds())
	}
	return j
}

// Sampler draws jittered latencies deterministically from one draw
// stream. A model owned by one lane-bound entity keeps its sampler across
// operations (only that entity's lane draws from it); a draw one entity
// makes for another uses a fresh Sampler value keyed on that identity.
type Sampler struct {
	s draw.Stream
}

// NewSampler returns a Sampler over the draw stream keyed by seed.
func NewSampler(seed int64) *Sampler {
	s := keyedSampler(uint64(seed))
	return &s
}

// keyedSampler returns a Sampler value over the draw stream of key.
func keyedSampler(key uint64) Sampler { return Sampler{s: draw.New(key)} }

// Jittered returns mean + N(0, sigma) where sigma is derived from the 90 %
// confidence half-width ci of a mean over n≈10 runs (sigma ≈ ci·√n/1.645).
// The result is clamped to be at least 10 % of the mean and nonnegative.
func (s *Sampler) Jittered(mean, ci time.Duration) time.Duration {
	sigma := float64(ci) * 1.92 // √10 / 1.645
	d := time.Duration(float64(mean) + s.s.NormFloat64()*sigma)
	if minD := mean / 10; d < minD {
		d = minD
	}
	if d < 0 {
		d = 0
	}
	return d
}

// JitteredClamped is Jittered with explicit bounds.
func (s *Sampler) JitteredClamped(mean, ci, lo, hi time.Duration) time.Duration {
	d := s.Jittered(mean, ci)
	if d < lo {
		d = lo
	}
	if d > hi {
		d = hi
	}
	return d
}

// UniformDur draws uniformly from [lo, hi].
func (s *Sampler) UniformDur(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(s.s.Int63n(int64(hi-lo)+1))
}

// UniformMW draws a power level uniformly from [lo, hi].
func (s *Sampler) UniformMW(lo, hi float64) energy.Milliwatts {
	if hi <= lo {
		return energy.Milliwatts(lo)
	}
	return energy.Milliwatts(lo + s.s.Float64()*(hi-lo))
}
