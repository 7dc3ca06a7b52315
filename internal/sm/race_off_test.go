//go:build !race

package sm

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = false
