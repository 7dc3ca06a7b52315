package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the repo's internal packages the traced run charges host
// cost to. Frames of other packages (the runtime, the stdlib, the root
// contory package, cxt and the other helpers) are billed to the innermost
// layer frame that called them.
var layers = []string{
	"vclock", "simnet", "radio", "refs", "sm", "fuego", "infra", "gps", "energy",
	"provider", "core", "query", "repo", "qos", "metrics", "tracing", "timeline",
	"audit", "chaos", "fleet",
}

// setupLayers are the buckets fleet.New's CPU is split into; samples
// charged to any other layer fold into "other".
var setupLayers = []string{"sm", "simnet", "radio", "refs", "core", "energy", "fleet"}

// Buckets that complete the layer set: background GC marking, and stacks
// with no layer frame at all.
const (
	bucketGC    = "gc"
	bucketOther = "other"
)

// Phases of Engine.Run recognised by the frames beneath them.
const (
	phaseSummarize = "summarize"
	phaseQuiesce   = "quiesce"
)

var (
	isLayer     = make(map[string]bool, len(layers))
	phaseFrames = map[string]string{
		"contory/internal/fleet.(*Engine).summarize":    phaseSummarize,
		"contory/internal/fleet.(*Engine).quiesceAudit": phaseQuiesce,
	}
)

func init() {
	for _, l := range layers {
		isLayer[l] = true
	}
}

// layerOf returns the layer a function belongs to, or "" when it is not in
// a layer package.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, "contory/internal/")
	if !ok {
		return ""
	}
	pkg, _, ok := strings.Cut(rest, ".")
	if !ok || !isLayer[pkg] {
		return ""
	}
	return pkg
}

// chargeStack picks the bucket a sample's stack (function names, innermost
// first) is charged to: the innermost layer frame, else gc for background
// mark workers, else other.
func chargeStack(stack []string) string {
	gc := false
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
		if fn == "runtime.gcBgMarkWorker" {
			gc = true
		}
	}
	if gc {
		return bucketGC
	}
	return bucketOther
}

// phaseOfStack names the Engine.Run phase a stack runs under, or "".
func phaseOfStack(stack []string) string {
	for _, fn := range stack {
		if p, ok := phaseFrames[fn]; ok {
			return p
		}
	}
	return ""
}

// sample is one decoded profile sample: its stack, innermost frame first
// (inlined frames expanded), and the value of the requested sample type.
type sample struct {
	stack []string
	value int64
}

// charge sums samples per bucket, and per phase for the named phases.
func charge(samples []sample) (buckets, phases map[string]int64, total int64) {
	buckets = make(map[string]int64)
	phases = make(map[string]int64)
	for _, s := range samples {
		buckets[chargeStack(s.stack)] += s.value
		if p := phaseOfStack(s.stack); p != "" {
			phases[p] += s.value
		}
		total += s.value
	}
	return buckets, phases, total
}

// parseProfile decodes a gzipped pprof profile, as runtime/pprof writes it,
// into samples carrying the value of sample type typ (for example "cpu" or
// "alloc_space"). Only the fields the benchmark needs are read.
func parseProfile(gz []byte, typ string) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct{ locs, vals []uint64 }
	var (
		typeIdx   []uint64 // sample_type string indexes, in value order
		rawSmps   []rawSample
		locLines  = make(map[uint64][]uint64) // location id -> function ids, innermost first
		funcNames = make(map[uint64]uint64)   // function id -> name string index
		strs      []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					return appendVarints(&s.vals, v, b)
				}
				return nil
			})
			rawSmps = append(rawSmps, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	vi := -1
	for i, t := range typeIdx {
		if str(t) == typ {
			vi = i
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("profile: no sample type %q", typ)
	}
	out := make([]sample, 0, len(rawSmps))
	for _, rs := range rawSmps {
		if vi >= len(rs.vals) {
			return nil, errors.New("profile: sample has too few values")
		}
		var stack []string
		for _, loc := range rs.locs {
			for _, fn := range locLines[loc] {
				stack = append(stack, str(funcNames[fn]))
			}
		}
		out = append(out, sample{stack: stack, value: int64(rs.vals[vi])})
	}
	return out, nil
}

// eachField walks the fields of one protobuf message, calling fn with the
// field number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped; profiles use none the benchmark reads.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked (one
// value) or packed (a run of varints in b).
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
