package control

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"iris/internal/jsonw"
)

// The line protocol is one JSON object per '\n'-terminated line:
//
//	request  = {"id": int, "op": string [, "args": object]}
//	response = {"id": int, "ok": bool [, "error": string] [, "result": object]}
//
// This file is its only codec. It accepts exactly the lines
// json.Unmarshal into Request/Response accepts — field names match
// case-insensitively, unknown fields are skipped, null leaves a field at
// its zero value, a repeated "args"/"result" object merges into the
// earlier one — and writes lines encoding/json accepts, but it does so in
// one pass without reflection, because a codec sits on both ends of every
// device RPC of every tick. Strings are written by jsonw.String, the read
// plane's encoder, so both codecs escape a string as encoding/json does.
//
// Values inside "args" and "result" are the closed set the devices use:
// nil, bool, int, float64, string, []int and nested map[string]any / []any
// of those. The decoder yields []int for an array of integer literals, so
// a batch's indices and a switch's ports are one typed slice, not boxed
// values (a bank's per-transceiver state travels as two strings); any
// other array is []any, scalar numbers are float64 and objects are
// map[string]any, as encoding/json would give.

// maxDepth is encoding/json's nesting limit; past it a line is malformed.
const maxDepth = 10000

// appendRequest appends r as one protocol line.
func appendRequest(dst []byte, r *wireRequest) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, r.ID, 10)
	dst = append(dst, `,"op":`...)
	dst = jsonw.String(dst, r.Op)
	if len(r.Args) > 0 {
		var err error
		dst = append(dst, `,"args":`...)
		if dst, err = appendValue(dst, r.Args); err != nil {
			return nil, err
		}
	}
	return append(dst, '}', '\n'), nil
}

// appendResponse appends r as one protocol line.
func appendResponse(dst []byte, r *wireResponse) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, r.ID, 10)
	dst = append(dst, `,"ok":`...)
	dst = strconv.AppendBool(dst, r.OK)
	if r.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = jsonw.String(dst, r.Error)
	}
	if len(r.Result) > 0 {
		var err error
		dst = append(dst, `,"result":`...)
		if dst, err = appendValue(dst, r.Result); err != nil {
			return nil, err
		}
	}
	return append(dst, '}', '\n'), nil
}

// appendValue appends one value of the protocol's closed set; a value
// outside it goes through json.Marshal. Nil slices and maps are written
// as empty ones, and object keys are written in map order.
func appendValue(dst []byte, v any) ([]byte, error) {
	var err error
	switch v := v.(type) {
	case nil:
		return append(dst, "null"...), nil
	case bool:
		return strconv.AppendBool(dst, v), nil
	case int:
		return strconv.AppendInt(dst, int64(v), 10), nil
	case float64:
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("control: wire: cannot encode %v", v)
		}
		return strconv.AppendFloat(dst, v, 'g', -1, 64), nil
	case string:
		return jsonw.String(dst, v), nil
	case []int:
		dst = append(dst, '[')
		for i, e := range v {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(e), 10)
		}
		return append(dst, ']'), nil
	case []any:
		dst = append(dst, '[')
		for i, e := range v {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendValue(dst, e); err != nil {
				return nil, err
			}
		}
		return append(dst, ']'), nil
	case map[string]any:
		dst = append(dst, '{')
		for k, e := range v {
			dst = jsonw.String(dst, k)
			dst = append(dst, ':')
			if dst, err = appendValue(dst, e); err != nil {
				return nil, err
			}
			dst = append(dst, ',')
		}
		return closeObject(dst), nil
	default:
		b, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("control: wire: %w", err)
		}
		return append(dst, b...), nil
	}
}

// closeObject replaces the comma after an object's last member, if it
// has one, with the closing brace.
func closeObject(dst []byte) []byte {
	if dst[len(dst)-1] == ',' {
		dst[len(dst)-1] = '}'
		return dst
	}
	return append(dst, '}')
}

// decodeRequest decodes one protocol line into r.
func decodeRequest(line []byte, r *wireRequest) error {
	d := decoder{b: line}
	return d.message(func(key []byte) (err error) {
		switch fieldName(key, "id", "op", "args") {
		case "id":
			r.ID, err = d.int64Field(r.ID)
		case "op":
			r.Op, err = d.stringField(r.Op)
		case "args":
			r.Args, err = d.objectField(r.Args)
		default:
			err = d.skip()
		}
		return err
	})
}

// decodeResponse decodes one protocol line into r.
func decodeResponse(line []byte, r *wireResponse) error {
	d := decoder{b: line}
	return d.message(func(key []byte) (err error) {
		switch fieldName(key, "id", "ok", "error", "result") {
		case "id":
			r.ID, err = d.int64Field(r.ID)
		case "ok":
			r.OK, err = d.boolField(r.OK)
		case "error":
			r.Error, err = d.stringField(r.Error)
		case "result":
			r.Result, err = d.objectField(r.Result)
		default:
			err = d.skip()
		}
		return err
	})
}

// fieldName matches an object key to one of a message's field names the
// way encoding/json does — exactly, or else under Unicode case folding —
// and returns "" for a key that names no field.
func fieldName(key []byte, names ...string) string {
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	for _, n := range names {
		if strings.EqualFold(string(key), n) {
			return n
		}
	}
	return ""
}

// decoder is a single-pass reader over one line. Every method is entered
// with d.i at the first byte of what it reads and leaves d.i just past it.
type decoder struct {
	b     []byte
	i     int
	depth int
	// skipping is set while an unknown field's value is read: it is
	// checked for syntax only, so a number no float64 holds passes there
	// as it does through encoding/json.
	skipping bool
}

// errorf reports what is wrong at d.i; at the end of the line that is
// always that the line ended.
func (d *decoder) errorf(format string, args ...any) error {
	if d.i >= len(d.b) {
		return errors.New("control: wire: unexpected end of line")
	}
	return fmt.Errorf("control: wire: offset %d: %s", d.i, fmt.Sprintf(format, args...))
}

func (d *decoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return
		}
	}
}

// peek returns the next byte without consuming it, 0 at the end of the
// line (a NUL byte is not valid anywhere a caller peeks).
func (d *decoder) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

// lit consumes the literal s if it is next.
func (d *decoder) lit(s string) bool {
	if len(d.b)-d.i >= len(s) && string(d.b[d.i:d.i+len(s)]) == s {
		d.i += len(s)
		return true
	}
	return false
}

// message reads the line's single top-level value: an object whose
// members are handed to field one at a time (field consumes the member's
// value), or null, which leaves the message untouched.
func (d *decoder) message(field func(key []byte) error) error {
	d.ws()
	if d.lit("null") {
		return d.end()
	}
	if d.peek() != '{' {
		return d.errorf("a message is a JSON object")
	}
	if err := d.members(field); err != nil {
		return err
	}
	return d.end()
}

func (d *decoder) end() error {
	d.ws()
	if d.i != len(d.b) {
		return d.errorf("data after the message")
	}
	return nil
}

// members reads an object, calling field with each key and d.i at the
// member's value.
func (d *decoder) members(field func(key []byte) error) error {
	if d.depth++; d.depth > maxDepth {
		return d.errorf("nesting deeper than %d", maxDepth)
	}
	d.i++ // '{'
	d.ws()
	if d.peek() == '}' {
		d.i++
		d.depth--
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.errorf("object key must be a string")
		}
		key, err := d.strBytes()
		if err != nil {
			return err
		}
		d.ws()
		if d.peek() != ':' {
			return d.errorf("missing ':' after object key")
		}
		d.i++
		d.ws()
		if err := field(key); err != nil {
			return err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.i++
			d.ws()
		case '}':
			d.i++
			d.depth--
			return nil
		default:
			return d.errorf("missing ',' or '}' in object")
		}
	}
}

// The *Field readers decode a value into a typed message field; null
// keeps the current value, any other kind of value is an error.

func (d *decoder) int64Field(cur int64) (int64, error) {
	if d.lit("null") {
		return cur, nil
	}
	n, isInt, _, err := d.number() // anything but a number has "no digits"
	if err == nil && !isInt {
		err = d.errorf("field must be an integer")
	}
	return n, err
}

func (d *decoder) boolField(cur bool) (bool, error) {
	switch {
	case d.lit("null"):
		return cur, nil
	case d.lit("true"):
		return true, nil
	case d.lit("false"):
		return false, nil
	}
	return false, d.errorf("field must be a boolean")
}

func (d *decoder) stringField(cur string) (string, error) {
	if d.lit("null") {
		return cur, nil
	}
	if d.peek() != '"' {
		return "", d.errorf("field must be a string")
	}
	return d.str()
}

func (d *decoder) objectField(cur map[string]any) (map[string]any, error) {
	if d.lit("null") {
		return nil, nil
	}
	if d.peek() != '{' {
		return nil, d.errorf("field must be an object")
	}
	return d.object(cur)
}

// skip reads and discards the value of a field the message does not have.
func (d *decoder) skip() error {
	d.skipping = true
	_, err := d.value()
	d.skipping = false
	return err
}

// value reads any JSON value.
func (d *decoder) value() (any, error) {
	switch c := d.peek(); {
	case c == '{':
		return d.object(nil)
	case c == '[':
		return d.array()
	case c == '"':
		return d.str()
	case c == '-' || (c >= '0' && c <= '9'):
		return d.float()
	case d.lit("true"):
		return true, nil
	case d.lit("false"):
		return false, nil
	case d.lit("null"):
		return nil, nil
	default:
		return nil, d.errorf("invalid character %q", c)
	}
}

// object reads an object into m (allocated when nil); a repeated key
// keeps its last value.
func (d *decoder) object(m map[string]any) (map[string]any, error) {
	if m == nil {
		m = make(map[string]any)
	}
	err := d.members(func(key []byte) error {
		v, err := d.value()
		if err == nil {
			m[intern(key)] = v
		}
		return err
	})
	return m, err
}

// array reads an array as []int while every element is an integer
// literal that fits an int, and as []any of generically decoded values
// from the first element that is not (the elements already read are
// widened). The empty array is an empty []any.
func (d *decoder) array() (any, error) {
	if d.depth++; d.depth > maxDepth {
		return nil, d.errorf("nesting deeper than %d", maxDepth)
	}
	d.i++ // '['
	d.ws()
	if d.peek() == ']' {
		d.i++
		d.depth--
		return []any{}, nil
	}
	var (
		ints []int
		anys []any
		n    = d.elems()
	)
	for {
		c := d.peek()
		switch {
		case anys == nil && (c == '-' || (c >= '0' && c <= '9')):
			start := d.i
			v, isInt, _, err := d.number()
			if err != nil {
				return nil, err
			}
			if !isInt || int64(int(v)) != v {
				d.i = start
				anys = widen(ints, n)
				continue
			}
			if ints == nil {
				ints = make([]int, 0, n)
			}
			ints = append(ints, int(v))
		default:
			if anys == nil {
				anys = widen(ints, n)
			}
			v, err := d.value()
			if err != nil {
				return nil, err
			}
			anys = append(anys, v)
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.i++
			d.ws()
		case ']':
			d.i++
			d.depth--
			if anys != nil {
				return anys, nil
			}
			return ints, nil
		default:
			return nil, d.errorf("missing ',' or ']' in array")
		}
	}
}

// elems estimates the element count of the array whose first element is
// at d.i, exactly for a flat array of scalars, so its slice is allocated
// once.
func (d *decoder) elems() int {
	n := 1
	for _, c := range d.b[d.i:] {
		switch c {
		case ',':
			n++
		case ']', '[', '{', '"':
			return n
		}
	}
	return n
}

// widen converts the integer prefix of an array that turned out mixed into
// the generic form encoding/json gives.
func widen(ints []int, n int) []any {
	out := make([]any, 0, n)
	for _, v := range ints {
		out = append(out, float64(v))
	}
	return out
}

// number scans the JSON number at d.i. When it is an integer literal that
// fits an int64, isInt is true and n is its value; lit is the literal
// either way.
func (d *decoder) number() (n int64, isInt bool, lit []byte, err error) {
	start, b := d.i, d.b
	i := start
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	digits := func() bool {
		j := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > j
	}
	fail := func(what string) (int64, bool, []byte, error) {
		d.i = i
		return 0, false, nil, d.errorf("invalid number: %s", what)
	}
	intStart := i
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return fail("no digits")
	}
	intEnd := i
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return fail("no digits after '.'")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return fail("no digits in exponent")
		}
	}
	d.i = i
	lit = b[start:i]
	if i != intEnd || intEnd-intStart > 19 {
		return 0, false, lit, nil
	}
	// At most 19 digits: the magnitude fits a uint64.
	var u uint64
	for _, c := range b[intStart:intEnd] {
		u = u*10 + uint64(c-'0')
	}
	switch {
	case !neg && u <= math.MaxInt64:
		return int64(u), true, lit, nil
	case neg && u <= math.MaxInt64+1:
		return -int64(u), true, lit, nil
	}
	return 0, false, lit, nil
}

// float reads a number as the float64 encoding/json would give.
func (d *decoder) float() (any, error) {
	n, isInt, lit, err := d.number()
	if err != nil {
		return nil, err
	}
	if d.skipping {
		return nil, nil
	}
	if isInt && n > -1<<53 && n < 1<<53 {
		return float64(n), nil
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return nil, d.errorf("number %s does not fit a float64", lit)
	}
	return f, nil
}

func (d *decoder) str() (string, error) {
	b, err := d.strBytes()
	return intern(b), err
}

// words are the device protocol's object keys and operation names. The
// decoder hands out these strings for them instead of a copy of the line's
// bytes, which would cost an allocation per key of every message.
var words = [...]string{
	"idxs", "wavelengths", "disconnect", "ins", "outs", "state",
	"in", "out", "ports", "tuned", "enabled", "lambda",
	"gain_db", "limit_dbm", "fixed_gain", "kind",
	"switch-batch", "tune-batch", "disable-batch", "enable-batch",
	"enable", "disable", "ping",
}

// intern returns b as a string, without allocating when it is one of words.
func intern(b []byte) string {
	for _, w := range words {
		if string(b) == w {
			return w
		}
	}
	return string(b)
}

// strBytes reads the string literal at d.i. A literal of printable ASCII
// with no escape is returned as a slice of the line; any other goes
// through encoding/json, which owns unescaping, surrogate pairs and the
// replacement of invalid UTF-8.
func (d *decoder) strBytes() ([]byte, error) {
	start := d.i + 1
	for i := start; i < len(d.b); i++ {
		switch c := d.b[i]; {
		case c == '"':
			d.i = i + 1
			return d.b[start:i], nil
		case c == '\\' || c < 0x20 || c >= 0x80:
			return d.strSlow()
		}
	}
	d.i = len(d.b)
	return nil, d.errorf("unterminated string")
}

func (d *decoder) strSlow() ([]byte, error) {
	for i := d.i + 1; i < len(d.b); i++ {
		switch d.b[i] {
		case '\\':
			i++
		case '"':
			var s string
			if err := json.Unmarshal(d.b[d.i:i+1], &s); err != nil {
				return nil, d.errorf("%v", err)
			}
			d.i = i + 1
			return []byte(s), nil
		}
	}
	d.i = len(d.b)
	return nil, d.errorf("unterminated string")
}
