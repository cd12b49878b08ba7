// Package jsonw holds the primitives JSON bodies are appended with. A
// body type that answers reads on a measured path has an AppendJSON
// method that appends its own encoding with them, byte for byte what
// encoding/json writes for it, so a read costs its answer and not
// reflection; any other body (the debug dumps) goes through
// encoding/json. httpjson.Write is the one writer of both; the device
// plane's line codec writes its strings with String. The package links
// no HTTP stack.
package jsonw

import (
	"encoding/json"
	"math"
	"strconv"
	"time"
)

// appender is a body with an AppendJSON method that appends its own JSON
// encoding to dst: exactly the bytes json.Marshal writes for it, which
// its tests hold it to.
type appender interface {
	AppendJSON(dst []byte) []byte
}

// Int appends v.
func Int(dst []byte, v int) []byte { return strconv.AppendInt(dst, int64(v), 10) }

// Uint appends v.
func Uint(dst []byte, v uint64) []byte { return strconv.AppendUint(dst, v, 10) }

// Bool appends v.
func Bool(dst []byte, v bool) []byte { return strconv.AppendBool(dst, v) }

// Float appends f as encoding/json does: the shortest decimal that reads
// back as f, in 'f' form unless |f| is below 1e-6 or at least 1e21, and
// then in 'e' form with a one-digit negative exponent unpadded (1e-07 is
// written 1e-7). NaN and ±Inf have no JSON form: Float panics with
// encoding/json's own *json.UnsupportedValueError, which Write answers
// as a 500, the way encoding/json's encoder reports it.
func Float(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		panic(&json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)})
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// String appends s as a JSON string. Printable ASCII that encoding/json
// copies as it is — every name, key and message the bodies carry — is
// copied; a string with any byte it escapes (a quote, a backslash, a
// control byte, <, > or &, or any byte above 0x7f, where it also replaces
// invalid UTF-8 and escapes U+2028 and U+2029) goes through
// encoding/json, which owns those rules.
func String(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string cannot fail to marshal
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// Time appends t as time.Time's MarshalJSON does: quoted RFC 3339 with
// nanoseconds. A time RFC 3339 cannot hold (a year outside [0,9999], an
// offset of a day or more) panics as Float does on NaN.
func Time(dst []byte, t time.Time) []byte {
	dst = append(dst, '"')
	n0 := len(dst)
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	n := len(dst)
	bad := dst[n0+len("9999")] != '-' // the year is not four digits
	if !bad && dst[n-1] != 'Z' {
		c := dst[n-len("Z07:00")]
		bad = '0' <= c && c <= '9' || 10*(dst[n-len("07:00")]-'0')+(dst[n-len("7:00")]-'0') >= 24
	}
	if bad {
		panic(&json.UnsupportedValueError{Str: t.String()})
	}
	return append(dst, '"')
}

// Ints appends v as a JSON array, or null when v is nil.
func Ints(dst []byte, v []int) []byte {
	if v == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, e := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = Int(dst, e)
	}
	return append(dst, ']')
}

// Uints appends v as a JSON array, or null when v is nil.
func Uints(dst []byte, v []uint64) []byte {
	if v == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, e := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = Uint(dst, e)
	}
	return append(dst, ']')
}

// Strings appends v as a JSON array, or null when v is nil.
func Strings(dst []byte, v []string) []byte {
	if v == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, e := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = String(dst, e)
	}
	return append(dst, ']')
}

// Slice appends v as a JSON array of its elements' encodings, or null
// when v is nil.
func Slice[T appender](dst []byte, v []T) []byte {
	if v == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = v[i].AppendJSON(dst)
	}
	return append(dst, ']')
}
