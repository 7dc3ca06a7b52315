// Package draw is the simulator's one source of randomness for everything
// that runs while the virtual clock runs. A value is a pure function of a
// key and a counter: the n-th value of key k is Mix(k ^ Mix(n)). Keys are
// built from a seed and stable identities (Key, HashID), so a draw depends
// on who draws it and how often that identity has drawn before, never on
// lane interleaving, sharding or what other code drew.
package draw

import (
	"math"
	"math/bits"
)

// Mix is the splitmix64 finaliser: a strong 64-bit mixer.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashID is the 64-bit FNV-1a hash of an identifier: the stable key of a
// node's vclock lane and of identity-keyed draws.
func HashID(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Key folds parts into k in order: Key(k, p) is the p-th value of key k,
// and Key(k, p, q) is Key(Key(k, p), q).
func Key(k uint64, parts ...uint64) uint64 {
	for _, p := range parts {
		k = Mix(k ^ Mix(p))
	}
	return k
}

// Stream is a counter over one key: its n-th value is Key(key, n). The
// zero value is the stream of key 0. A Stream is a plain value with no
// lock; whoever owns it serialises its draws.
type Stream struct {
	key, n uint64
}

// New returns the stream of key.
func New(key uint64) Stream { return Stream{key: key} }

// Uint64 returns the stream's next value.
func (s *Stream) Uint64() uint64 {
	v := Mix(s.key ^ Mix(s.n))
	s.n++
	return v
}

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 { return float64(s.Uint64()>>11) / (1 << 53) }

// Int63n returns a uniform value in [0, n); n must be positive.
func (s *Stream) Int63n(n int64) int64 {
	if n <= 0 {
		panic("draw: Int63n of a non-positive bound")
	}
	hi, _ := bits.Mul64(s.Uint64(), uint64(n))
	return int64(hi)
}

// Intn returns a uniform value in [0, n); n must be positive.
func (s *Stream) Intn(n int) int { return int(s.Int63n(int64(n))) }

// NormFloat64 returns a standard normal value (Box–Muller over two draws).
func (s *Stream) NormFloat64() float64 {
	u1 := float64(s.Uint64()>>11+1) / (1 << 53) // (0, 1]: the log is finite
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
