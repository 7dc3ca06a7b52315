package gps

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"contory/internal/cxt"
)

// fmtRMC, fmtGGA and fmtBurst are the fmt-based formatters the append-based
// ones replaced, kept as the oracle they must match byte for byte.
func fmtRMC(fix cxt.Fix, at time.Time) string {
	body := fmt.Sprintf("GPRMC,%s,A,%s,%s,%06.2f,%06.2f,%s,,",
		at.Format("150405"),
		fmtLat(fix.Lat), fmtLon(fix.Lon),
		fix.SpeedKn, fix.Course,
		at.Format("020106"))
	return fmt.Sprintf("$%s*%02X", body, Checksum(body))
}

func fmtGGA(fix cxt.Fix, at time.Time) string {
	body := fmt.Sprintf("GPGGA,%s,%s,%s,1,08,0.9,5.0,M,0.0,M,,",
		at.Format("150405"),
		fmtLat(fix.Lat), fmtLon(fix.Lon))
	return fmt.Sprintf("$%s*%02X", body, Checksum(body))
}

func fmtBurst(fix cxt.Fix, at time.Time) string {
	var b strings.Builder
	b.WriteString(fmtRMC(fix, at))
	b.WriteString("\r\n")
	b.WriteString(fmtGGA(fix, at))
	b.WriteString("\r\n")
	for b.Len() < BurstBytes {
		body := "GPGSV,3,1,12,02,45,120,40,05,30,200,35,12,60,050,42,25,15,310,30"
		s := fmt.Sprintf("$%s*%02X\r\n", body, Checksum(body))
		remaining := BurstBytes - b.Len()
		if remaining < len(s) {
			b.WriteString(s[:remaining])
			break
		}
		b.WriteString(s)
	}
	return b.String()
}

func fmtLat(deg float64) string {
	hemi := "N"
	if deg < 0 {
		hemi = "S"
		deg = -deg
	}
	d := math.Floor(deg)
	m := (deg - d) * 60
	return fmt.Sprintf("%02.0f%07.4f,%s", d, m, hemi)
}

func fmtLon(deg float64) string {
	hemi := "E"
	if deg < 0 {
		hemi = "W"
		deg = -deg
	}
	d := math.Floor(deg)
	m := (deg - d) * 60
	return fmt.Sprintf("%03.0f%07.4f,%s", d, m, hemi)
}

func checkFormatters(t *testing.T, fix cxt.Fix, at time.Time) {
	t.Helper()
	if got, want := FormatRMC(fix, at), fmtRMC(fix, at); got != want {
		t.Fatalf("FormatRMC(%+v, %v)\n got %q\nwant %q", fix, at, got, want)
	}
	if got, want := FormatGGA(fix, at), fmtGGA(fix, at); got != want {
		t.Fatalf("FormatGGA(%+v, %v)\n got %q\nwant %q", fix, at, got, want)
	}
	if got, want := Burst(fix, at), fmtBurst(fix, at); got != want {
		t.Fatalf("Burst(%+v, %v)\n got %q\nwant %q", fix, at, got, want)
	}
}

// TestFormattersMatchFmtOracle: over random fixes and times, and over the
// edge cases — both hemispheres, negative and oversized speed and course,
// minutes that round up to 60.0000, negative zero, NaN and ±Inf, and day,
// month, year and century rollovers in UTC and another zone — the
// formatters equal the fmt oracle byte for byte.
func TestFormattersMatchFmtOracle(t *testing.T) {
	edgeFixes := []cxt.Fix{
		{Lat: 60.16, Lon: 24.9333, SpeedKn: 5.2, Course: 270},
		{Lat: -33.85, Lon: -151.2, SpeedKn: -3.456, Course: -12.5},
		{Lat: 10 + 59.99996/60, Lon: -(20 + 59.99997/60), SpeedKn: 0.004, Course: 359.996},
		{Lat: 89.999999, Lon: 179.9999999, SpeedKn: 999.999, Course: 12345.678},
		{Lat: math.Copysign(0, -1), Lon: math.Copysign(0, -1), SpeedKn: math.Copysign(0, -1), Course: -0.001},
		{Lat: 0.5, Lon: 100.25, SpeedKn: math.NaN(), Course: math.Inf(1)},
		{Lat: math.NaN(), Lon: math.Inf(-1), SpeedKn: math.Inf(-1), Course: 1e21},
		{Lat: 123.4, Lon: -1234.5, SpeedKn: -1e6, Course: 1.005},
	}
	eet := time.FixedZone("EET", 2*60*60)
	edgeTimes := []time.Time{
		testTime,
		time.Date(2005, time.December, 31, 23, 59, 59, 999_999_999, time.UTC),
		time.Date(2006, time.January, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1999, time.December, 31, 23, 59, 59, 0, time.UTC),
		time.Date(2100, time.February, 28, 23, 59, 59, 0, time.UTC),
		time.Date(2004, time.February, 29, 12, 0, 0, 0, time.UTC),
		time.Date(2005, time.December, 31, 22, 30, 0, 0, time.UTC).In(eet),
		time.Date(7, time.March, 1, 9, 8, 7, 0, time.UTC),
		time.Date(-43, time.March, 15, 11, 0, 0, 0, time.UTC),
		{},
	}
	for _, fix := range edgeFixes {
		for _, at := range edgeTimes {
			checkFormatters(t, fix, at)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		fix := cxt.Fix{
			Lat:     rng.Float64()*180 - 90,
			Lon:     rng.Float64()*360 - 180,
			SpeedKn: rng.Float64()*60 - 10,
			Course:  rng.Float64()*720 - 360,
		}
		if i%4 == 0 { // exact hundredths, as the testbed's scripted fixes are
			fix.Lat = float64(rng.Intn(18001)-9000) / 100
			fix.Lon = float64(rng.Intn(36001)-18000) / 100
		}
		at := time.Unix(rng.Int63n(4_102_444_800), rng.Int63n(1e9)).UTC()
		checkFormatters(t, fix, at)
	}
}

func TestBurstAllocs(t *testing.T) {
	fix := cxt.Fix{Lat: 60.16, Lon: 24.9333, SpeedKn: 3.1, Course: 90}
	if got := testing.AllocsPerRun(100, func() { benchBurst = Burst(fix, testTime) }); got > 4 {
		t.Fatalf("Burst: %v allocations, want at most 4", got)
	}
}

var benchBurst string

func BenchmarkBurst(b *testing.B) {
	fix := cxt.Fix{Lat: 60.16, Lon: 24.9333, SpeedKn: 3.1, Course: 90}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchBurst = Burst(fix, testTime.Add(time.Duration(i)*time.Second))
	}
}

// splitParseRMC and splitParseBurst are the strings.Split-based parsers the
// in-place ones replaced, kept as the oracle they must agree with.
func splitParseRMC(sentence string) (cxt.Fix, error) {
	body, err := checkFrame(sentence)
	if err != nil {
		return cxt.Fix{}, err
	}
	fields := strings.Split(body, ",")
	if len(fields) < 10 || fields[0] != "GPRMC" {
		return cxt.Fix{}, fmt.Errorf("%w: not a GPRMC sentence", ErrBadSentence)
	}
	if fields[2] != "A" {
		return cxt.Fix{}, fmt.Errorf("%w: fix not valid (status %q)", ErrBadSentence, fields[2])
	}
	lat, err := parseCoord(fields[3], fields[4], 2)
	if err != nil {
		return cxt.Fix{}, err
	}
	lon, err := parseCoord(fields[5], fields[6], 3)
	if err != nil {
		return cxt.Fix{}, err
	}
	speed, err := strconv.ParseFloat(fields[7], 64)
	if err != nil {
		return cxt.Fix{}, fmt.Errorf("%w: speed: %v", ErrBadSentence, err)
	}
	course, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return cxt.Fix{}, fmt.Errorf("%w: course: %v", ErrBadSentence, err)
	}
	return cxt.Fix{Lat: lat, Lon: lon, SpeedKn: speed, Course: course}, nil
}

func splitParseBurst(burst string) (cxt.Fix, error) {
	for _, line := range strings.Split(burst, "\r\n") {
		if strings.HasPrefix(line, "$GPRMC") {
			return splitParseRMC(line)
		}
	}
	return cxt.Fix{}, fmt.Errorf("%w: burst has no GPRMC sentence", ErrBadSentence)
}

// sameParse reports whether two parse results agree: the same fix, bit for
// bit (a NaN field parses too), or errors with the same text, both
// ErrBadSentence.
func sameParse(got cxt.Fix, gotErr error, want cxt.Fix, wantErr error) bool {
	if wantErr != nil || gotErr != nil {
		return gotErr != nil && wantErr != nil && errors.Is(gotErr, ErrBadSentence) &&
			errors.Is(wantErr, ErrBadSentence) && gotErr.Error() == wantErr.Error()
	}
	bits := func(f cxt.Fix) [4]uint64 {
		return [4]uint64{math.Float64bits(f.Lat), math.Float64bits(f.Lon),
			math.Float64bits(f.SpeedKn), math.Float64bits(f.Course)}
	}
	return bits(got) == bits(want)
}

// checkParse compares ParseBurst on burst, and ParseRMC on each of its
// lines, with the oracle.
func checkParse(t *testing.T, burst string) {
	t.Helper()
	got, gotErr := ParseBurst(burst)
	want, wantErr := splitParseBurst(burst)
	if !sameParse(got, gotErr, want, wantErr) {
		t.Fatalf("ParseBurst(%q) = %+v, %v; oracle %+v, %v", burst, got, gotErr, want, wantErr)
	}
	for _, line := range strings.Split(burst, "\r\n") {
		got, gotErr := ParseRMC(line)
		want, wantErr := splitParseRMC(line)
		if !sameParse(got, gotErr, want, wantErr) {
			t.Fatalf("ParseRMC(%q) = %+v, %v; oracle %+v, %v", line, got, gotErr, want, wantErr)
		}
	}
}

// randomBurst renders a burst at a random fix and time.
func randomBurst(rng *rand.Rand) string {
	fix := cxt.Fix{
		Lat:     rng.Float64()*180 - 90,
		Lon:     rng.Float64()*360 - 180,
		SpeedKn: rng.Float64()*60 - 10,
		Course:  rng.Float64()*720 - 360,
	}
	return Burst(fix, time.Unix(rng.Int63n(4_102_444_800), 0).UTC())
}

// mutateBurst applies one random damage to a burst: a truncation, a field
// separator added or removed, a checksum or body character changed, a
// line end reduced to a lone "\n", an empty line, or a field emptied.
// Separator edits re-sign the sentence, so the field count (not the
// checksum) decides the outcome.
func mutateBurst(rng *rand.Rand, b string) string {
	rmcEnd := strings.Index(b, "\r\n")
	if rmcEnd < 0 {
		rmcEnd = len(b)
	}
	resign := func(s string) string {
		body, _, _ := strings.Cut(strings.TrimPrefix(s, "$"), "*")
		return "$" + body + "*" + strings.ToUpper(hex2(Checksum(body)))
	}
	rmc, rest := b[:rmcEnd], b[rmcEnd:]
	if len(rmc) < 2 { // too short to edit: truncate or add an empty line
		if rng.Intn(2) == 0 {
			return b[:rng.Intn(len(b)+1)]
		}
		return "\r\n" + b
	}
	switch rng.Intn(8) {
	case 0: // truncated anywhere
		return b[:rng.Intn(len(b)+1)]
	case 1: // a field added
		i := 1 + rng.Intn(len(rmc)-1)
		return resign(rmc[:i]+","+rmc[i:]) + rest
	case 2: // a field removed
		commas := strings.Count(rmc, ",")
		if commas == 0 {
			return b
		}
		k := rng.Intn(commas)
		i := 0
		for n := 0; ; i++ {
			if rmc[i] == ',' {
				if n == k {
					break
				}
				n++
			}
		}
		return resign(rmc[:i]+rmc[i+1:]) + rest
	case 3: // a bad checksum
		star := strings.LastIndexByte(rmc, '*')
		if star < 0 || star+2 > len(rmc) {
			return rmc + "*G0" + rest
		}
		return rmc[:star+1] + "G" + rmc[star+2:] + rest
	case 4: // a changed body character
		i := 1 + rng.Intn(len(rmc)-1)
		return rmc[:i] + string(rune('!'+rng.Intn(90))) + rmc[i+1:] + rest
	case 5: // a lone "\n" ends the RMC line
		if rest == "" {
			return b
		}
		return rmc + rest[1:]
	case 6: // empty lines before and between sentences
		return "\r\n" + rmc + "\r\n" + rest
	default: // one field emptied
		fields := strings.Split(rmc, ",")
		fields[rng.Intn(len(fields))] = ""
		return resign(strings.Join(fields, ",")) + rest
	}
}

// TestParseMatchesSplitOracle: on valid bursts at random fixes and times,
// and on bursts damaged once or twice, the in-place parsers return the
// oracle's fix, or fail exactly when it fails with the same ErrBadSentence
// error.
func TestParseMatchesSplitOracle(t *testing.T) {
	prop := func(seed int64, damage uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := randomBurst(rng)
		for i := 0; i < int(damage%3); i++ {
			b = mutateBurst(rng, b)
		}
		checkParse(t, b)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{"", "\r\n", "\n", "$GPRMC", "$GPRMC*00", "$GPRMC,,,,,,,,,*2D", "$GPRMC,,A,,,,,,,*6C"} {
		checkParse(t, b)
	}
}

func FuzzParseBurst(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 16; i++ {
		b := randomBurst(rng)
		f.Add(b)
		f.Add(mutateBurst(rng, b))
	}
	f.Fuzz(func(t *testing.T, burst string) { checkParse(t, burst) })
}

func TestParseBurstAllocs(t *testing.T) {
	b := Burst(cxt.Fix{Lat: 60.16, Lon: 24.9333, SpeedKn: 3.1, Course: 90}, testTime)
	if got := testing.AllocsPerRun(100, func() { benchFix, _ = ParseBurst(b) }); got != 0 {
		t.Fatalf("ParseBurst: %v allocations, want 0", got)
	}
}

var benchFix cxt.Fix
