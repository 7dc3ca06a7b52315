package gps

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
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
