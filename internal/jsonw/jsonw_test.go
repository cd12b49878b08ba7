package jsonw

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// marshal is the oracle: what encoding/json writes for v.
func marshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal(%#v): %v", v, err)
	}
	return b
}

func checkSame(t testing.TB, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Errorf("%s: appended %s, json.Marshal writes %s", what, got, want)
	}
}

var (
	floats = []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 1e-6, 9.99e-7, 1e-7, -1e-7, 1.234e-9,
		1e20, 1e21, 9.999999999999999e20, 123456789012345678901234.0, math.MaxFloat64, math.SmallestNonzeroFloat64,
		5e-324, 1e-300, 1e300, 0.3333333333333333, 2.5e-5, 1e100, -1e21}
	strs = []string{"", "plain", "oss-07", "<>&", "a\x01b\x1f\x00", "  ", "\xff\xfe bad", "quote\"back\\slash",
		"tab\tnl\ncr\r", "sep\u2028par\u2029", "héllo wörld", "\x7f", "\b\f", "emoji 😀", "trail\xe2\x80", "/slash"}
)

// TestPrimitivesMatchMarshal holds every primitive to encoding/json on
// the values whose encoding has a rule of its own: -0, the 'e' cut-offs
// and their exponent clean-up, escapes, invalid UTF-8, U+2028/U+2029,
// times in and out of UTC, and nil against empty slices.
func TestPrimitivesMatchMarshal(t *testing.T) {
	for _, f := range floats {
		checkSame(t, "Float", Float(nil, f), marshal(t, f))
	}
	for _, s := range strs {
		checkSame(t, "String", String(nil, s), marshal(t, s))
	}
	for _, v := range []int{0, 1, -1, math.MaxInt, math.MinInt} {
		checkSame(t, "Int", Int(nil, v), marshal(t, v))
	}
	for _, v := range []uint64{0, 1, math.MaxUint64} {
		checkSame(t, "Uint", Uint(nil, v), marshal(t, v))
	}
	for _, v := range []bool{false, true} {
		checkSame(t, "Bool", Bool(nil, v), marshal(t, v))
	}
	for _, tm := range []time.Time{
		time.Unix(0, 0).UTC(),
		time.Date(2026, 10, 18, 8, 21, 20, 123456789, time.UTC),
		time.Date(1999, 1, 2, 3, 4, 5, 100, time.FixedZone("east", 5*3600+1800)),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.FixedZone("west", -(23*3600+59*60))),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Now(),
	} {
		checkSame(t, "Time", Time(nil, tm), marshal(t, tm))
	}
	checkSame(t, "Ints(nil)", Ints(nil, nil), marshal(t, []int(nil)))
	checkSame(t, "Ints", Ints(nil, []int{}), marshal(t, []int{}))
	checkSame(t, "Ints", Ints(nil, []int{3, -1, 0}), marshal(t, []int{3, -1, 0}))
	checkSame(t, "Uints(nil)", Uints(nil, nil), marshal(t, []uint64(nil)))
	checkSame(t, "Uints", Uints(nil, []uint64{7, 0}), marshal(t, []uint64{7, 0}))
	checkSame(t, "Strings(nil)", Strings(nil, nil), marshal(t, []string(nil)))
	checkSame(t, "Strings", Strings(nil, strs), marshal(t, strs))
	checkSame(t, "Slice(nil)", Slice[named](nil, nil), marshal(t, []map[string]string(nil)))
	checkSame(t, "Slice", Slice(nil, []named{"a", "<b>"}),
		marshal(t, []map[string]string{{"name": "a"}, {"name": "<b>"}}))
}

// named is an appender for Slice: the object {"name": s}.
type named string

func (n named) AppendJSON(dst []byte) []byte {
	return append(String(append(dst, `{"name":`...), string(n)), '}')
}

// TestUnencodableValuesPanic: NaN, ±Inf and a time RFC 3339 cannot hold
// panic with encoding/json's error, which httpjson.Write turns into a 500.
func TestUnencodableValuesPanic(t *testing.T) {
	for name, add := range map[string]func(){
		"NaN":        func() { Float(nil, math.NaN()) },
		"+Inf":       func() { Float(nil, math.Inf(1)) },
		"-Inf":       func() { Float(nil, math.Inf(-1)) },
		"year 10000": func() { Time(nil, time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)) },
		"year -1":    func() { Time(nil, time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)) },
		"offset 24h": func() { Time(nil, time.Date(2000, 1, 1, 0, 0, 0, 0, time.FixedZone("far", 24*3600))) },
	} {
		func() {
			defer func() {
				if _, ok := recover().(*json.UnsupportedValueError); !ok {
					t.Errorf("%s: no *json.UnsupportedValueError panic", name)
				}
			}()
			add()
		}()
	}
}

// FuzzJSONAppend holds the string and float primitives to json.Marshal
// on arbitrary input.
func FuzzJSONAppend(f *testing.F) {
	for i, s := range strs {
		f.Add(s, floats[i%len(floats)])
	}
	f.Fuzz(func(t *testing.T, s string, x float64) {
		checkSame(t, "String", String(nil, s), marshal(t, s))
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return
		}
		checkSame(t, "Float", Float([]byte("prefix"), x), append([]byte("prefix"), marshal(t, x)...))
	})
}
