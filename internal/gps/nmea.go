// Package gps simulates the Bluetooth GPS receiver of the paper's testbed
// (an InsSirf III): NMEA 0183 sentence generation and parsing, and a
// simulated device that streams position bursts at 1 Hz over the BT medium
// with scriptable failures (the field trials saw roughly one BT
// disconnection per hour).
package gps

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"contory/internal/cxt"
)

// ErrBadSentence reports an unparsable or checksum-failing NMEA sentence.
var ErrBadSentence = errors.New("gps: bad NMEA sentence")

// Checksum computes the NMEA checksum (XOR of all bytes between '$' and
// '*').
func Checksum(body string) byte {
	var cs byte
	for i := 0; i < len(body); i++ {
		cs ^= body[i]
	}
	return cs
}

// FormatRMC renders a $GPRMC sentence for the fix at the given time.
func FormatRMC(fix cxt.Fix, at time.Time) string {
	var buf [sentenceBytes]byte
	var pos [positionBytes]byte
	return string(appendRMC(buf[:0], fix, at, appendPosition(pos[:0], fix)))
}

// FormatGGA renders a $GPGGA sentence for the fix at the given time.
func FormatGGA(fix cxt.Fix, at time.Time) string {
	var buf [sentenceBytes]byte
	var pos [positionBytes]byte
	return string(appendGGA(buf[:0], at, appendPosition(pos[:0], fix)))
}

// Burst renders the per-second NMEA burst the receiver ships over BT. The
// paper measures GPS-NMEA data at 340 bytes per sample; the burst is padded
// with $GPGSV filler sentences to that size.
func Burst(fix cxt.Fix, at time.Time) string {
	var buf [BurstBytes]byte
	var posBuf [positionBytes]byte
	pos := appendPosition(posBuf[:0], fix)
	b := appendRMC(buf[:0], fix, at, pos)
	b = append(b, "\r\n"...)
	b = appendGGA(b, at, pos)
	b = append(b, "\r\n"...)
	// Pad with satellite-in-view filler to the measured burst size.
	for len(b) < BurstBytes {
		b = append(b, gsvFiller[:min(len(gsvFiller), BurstBytes-len(b))]...)
	}
	return string(b)
}

// sentenceBytes is the longest NMEA 0183 sentence, CR LF included, and
// positionBytes the length of a ddmm.mmmm,N,dddmm.mmmm,E position.
const (
	sentenceBytes = 82
	positionBytes = 24
)

// gsvFiller is the constant satellites-in-view sentence that pads a burst.
var gsvFiller = string(appendChecksum([]byte("$GPGSV,3,1,12,02,45,120,40,05,30,200,35,12,60,050,42,25,15,310,30"), 0)) + "\r\n"

// appendRMC and appendGGA take the fix's position already rendered by
// appendPosition, so a burst renders it once for both sentences.
func appendRMC(b []byte, fix cxt.Fix, at time.Time, pos []byte) []byte {
	start := len(b)
	b = append(b, "$GPRMC,"...)
	b = appendClock(b, at)
	b = append(b, ",A,"...)
	b = append(b, pos...)
	b = append(b, ',')
	b = appendZeroPadded(b, fix.SpeedKn, 6, 2)
	b = append(b, ',')
	b = appendZeroPadded(b, fix.Course, 6, 2)
	b = append(b, ',')
	year, month, day := at.Date()
	if year < 0 {
		year = -year
	}
	b = appendTwoDigits(b, day)
	b = appendTwoDigits(b, int(month))
	b = appendTwoDigits(b, year%100)
	b = append(b, ",,"...)
	return appendChecksum(b, start)
}

func appendGGA(b []byte, at time.Time, pos []byte) []byte {
	start := len(b)
	b = append(b, "$GPGGA,"...)
	b = appendClock(b, at)
	b = append(b, ',')
	b = append(b, pos...)
	b = append(b, ",1,08,0.9,5.0,M,0.0,M,,"...)
	return appendChecksum(b, start)
}

// appendChecksum closes the sentence that starts with '$' at b[start] with
// '*' and the two upper-case hex digits of its checksum.
func appendChecksum(b []byte, start int) []byte {
	var cs byte
	for _, c := range b[start+1:] {
		cs ^= c
	}
	const hex = "0123456789ABCDEF"
	return append(b, '*', hex[cs>>4], hex[cs&0xf])
}

// appendClock renders at as hhmmss.
func appendClock(b []byte, at time.Time) []byte {
	h, m, s := at.Clock()
	return appendTwoDigits(appendTwoDigits(appendTwoDigits(b, h), m), s)
}

// appendTwoDigits renders 0 ≤ v < 100 as two digits.
func appendTwoDigits(b []byte, v int) []byte {
	return append(b, byte('0'+v/10), byte('0'+v%10))
}

// appendPosition renders ddmm.mmmm,N/S,dddmm.mmmm,E/W.
func appendPosition(b []byte, fix cxt.Fix) []byte {
	b = appendCoord(b, fix.Lat, 2, 'N', 'S')
	b = append(b, ',')
	return appendCoord(b, fix.Lon, 3, 'E', 'W')
}

// appendCoord renders |deg| as whole degrees zero-padded to degDigits,
// minutes as mm.mmmm, then the hemisphere.
func appendCoord(b []byte, deg float64, degDigits int, pos, neg byte) []byte {
	hemi := pos
	if deg < 0 {
		hemi = neg
		deg = -deg
	}
	d := math.Floor(deg)
	b = appendZeroPadded(b, d, degDigits, 0)
	b = appendZeroPadded(b, (deg-d)*60, 7, 4)
	return append(b, ',', hemi)
}

// appendZeroPadded renders v as fmt's %0<width>.<prec>f does: zeros go
// between the sign and the digits, and NaN and ±Inf are padded with spaces
// instead.
func appendZeroPadded(b []byte, v float64, width, prec int) []byte {
	var buf [32]byte
	num := strconv.AppendFloat(buf[:0], v, 'f', prec, 64)
	fill := byte('0')
	if math.IsNaN(v) || math.IsInf(v, 0) {
		fill = ' '
	} else if num[0] == '-' {
		b = append(b, '-')
		num = num[1:]
		width--
	}
	for n := len(num); n < width; n++ {
		b = append(b, fill)
	}
	return append(b, num...)
}

// BurstBytes is the size of one GPS-NMEA sample (340 B in §6.1).
const BurstBytes = 340

// ParseRMC parses a $GPRMC sentence back into a fix, verifying the
// checksum. Fields are scanned in place, with the semantics of splitting
// the body on ',': a sentence needs at least ten fields, and the fields
// after the ninth (the date onwards) are not read.
func ParseRMC(sentence string) (cxt.Fix, error) {
	body, err := checkFrame(sentence)
	if err != nil {
		return cxt.Fix{}, err
	}
	var fields [9]string
	n, rest := 0, body
	for ; n < len(fields); n++ {
		var more bool
		if fields[n], rest, more = strings.Cut(rest, ","); !more {
			break // n commas: n+1 fields
		}
	}
	if n < len(fields) || fields[0] != "GPRMC" {
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

// ParseBurst extracts the fix from the burst's first line that starts with
// $GPRMC. Lines end at "\r\n" (any text after the last one is a line too)
// and are scanned in place.
func ParseBurst(burst string) (cxt.Fix, error) {
	for rest := burst; ; {
		line, tail, more := strings.Cut(rest, "\r\n")
		if strings.HasPrefix(line, "$GPRMC") {
			return ParseRMC(line)
		}
		if !more {
			break
		}
		rest = tail
	}
	return cxt.Fix{}, fmt.Errorf("%w: burst has no GPRMC sentence", ErrBadSentence)
}

// checkFrame strips $...*CS framing and validates the checksum.
func checkFrame(sentence string) (string, error) {
	if len(sentence) < 4 || sentence[0] != '$' {
		return "", fmt.Errorf("%w: missing frame", ErrBadSentence)
	}
	star := strings.LastIndexByte(sentence, '*')
	if star < 0 || star+3 > len(sentence) {
		return "", fmt.Errorf("%w: missing checksum", ErrBadSentence)
	}
	body := sentence[1:star]
	want, err := strconv.ParseUint(sentence[star+1:star+3], 16, 8)
	if err != nil {
		return "", fmt.Errorf("%w: checksum: %v", ErrBadSentence, err)
	}
	if Checksum(body) != byte(want) {
		return "", fmt.Errorf("%w: checksum mismatch", ErrBadSentence)
	}
	return body, nil
}

// parseCoord converts ddmm.mmmm (+ hemisphere) back to decimal degrees;
// degDigits is 2 for latitude, 3 for longitude.
func parseCoord(val, hemi string, degDigits int) (float64, error) {
	if len(val) <= degDigits {
		return 0, fmt.Errorf("%w: coordinate %q", ErrBadSentence, val)
	}
	d, err := strconv.ParseFloat(val[:degDigits], 64)
	if err != nil {
		return 0, fmt.Errorf("%w: coordinate degrees: %v", ErrBadSentence, err)
	}
	m, err := strconv.ParseFloat(val[degDigits:], 64)
	if err != nil {
		return 0, fmt.Errorf("%w: coordinate minutes: %v", ErrBadSentence, err)
	}
	deg := d + m/60
	switch hemi {
	case "N", "E":
		return deg, nil
	case "S", "W":
		return -deg, nil
	default:
		return 0, fmt.Errorf("%w: hemisphere %q", ErrBadSentence, hemi)
	}
}
