package control

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"iris/internal/control/devicetest"
)

// generic rewrites a value of the protocol's closed set into the form
// encoding/json decodes it to: numbers float64, arrays []any, objects
// map[string]any, nil containers empty, strings as JSON carries them
// (invalid UTF-8 replaced).
func generic(v any) any {
	switch v := v.(type) {
	case int:
		return float64(v)
	case string:
		b, _ := json.Marshal(v)
		var s string
		_ = json.Unmarshal(b, &s)
		return s
	case []int:
		out := make([]any, len(v))
		for i, e := range v {
			out[i] = float64(e)
		}
		return out
	case []bool:
		out := make([]any, len(v))
		for i, e := range v {
			out[i] = e
		}
		return out
	case []any:
		out := make([]any, len(v))
		for i, e := range v {
			out[i] = generic(e)
		}
		return out
	case map[string]int:
		out := make(map[string]any, len(v))
		for k, e := range v {
			out[generic(k).(string)] = float64(e)
		}
		return out
	case map[string]any:
		out := make(map[string]any, len(v))
		for k, e := range v {
			out[generic(k).(string)] = generic(e)
		}
		return out
	}
	return v
}

// genericArgs is generic for a message's args/result, which are omitted
// from the line (and so decode to nil) when empty.
func genericArgs(m map[string]any) map[string]any {
	if len(m) == 0 {
		return nil
	}
	return generic(m).(map[string]any)
}

// wireSeeds are lines the package's own tests and controller put on the
// wire, plus the malformed shapes the decoder must agree with
// encoding/json about.
var wireSeeds = []string{
	`{"id":7,"op":"ping"}`,
	`this is not json`,
	``,
	`null`,
	` {"id":1,"op":"connect","args":{"in":0,"out":10}} `,
	`{"id":2,"op":"switch-batch","args":{"disconnect":[3],"ins":[0,1,2],"outs":[10,11,12]}}`,
	`{"id":3,"op":"tune-batch","args":{"idxs":[0,3],"wavelengths":[7,-1]}}`,
	`{"id":4,"op":"fill","args":{"channels":[]}}`,
	`{"id":5,"ok":true,"result":{"tuned":[5,-1,-1,-1],"enabled":[true,false,false,false],"lambda":40}}`,
	`{"id":6,"ok":true,"result":{"cross":{"0":8,"12":3},"ports":32}}`,
	`{"id":7,"ok":true,"result":{"gain_db":20,"limit_dbm":-3,"enabled":true,"fixed_gain":true}}`,
	`{"id":8,"ok":false,"error":"oss: unknown op \"explode\""}`,
	`{"ID":9,"Op":"state","ARGS":null,"extra":[1,{"a":1e999}]}`,
	`{"id":1,"id":2,"args":{"a":1},"args":{"b":[1,2.5,true,null,"x"]}}`,
	`{"id":1.0}`, `{"id":"1"}`, `{"id":99999999999999999999}`, `{"id":-9223372036854775808}`,
	`{"op":5}`, `{"ok":1}`, `{"args":[1]}`, `{"result":"x"}`, `[1]`, `7`, `"s"`, `true`,
	`{"id":1,}`, `{"id":1 "op":"x"}`, `{"id":1}}`, `{"id":1}x`, `{"a":01}`, `{"a":-}`, `{"a":1.}`, `{"a":.5}`,
	`{"a":"\u00e9\ud83d\ude00\ud800 é \n"}`, "{\"a\":\"\xff\"}", "{\"a\":\"\x01\"}", `{"a":"\x"}`, `{"a":"unterminated`,
	`{"\u0069d":3,"arg\u017f":{"k":[1e2,18446744073709551616,-0,0.5E-3]}}`,
	`{"args":{"deep":` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `}}`,
	`{"args":{"deep":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}}`,
	`{"a":[true,false,1],"b":[1,true],"c":[[1,2],[true]],"d":[{"x":[1]}]}`,
	`{"id":5,"ok":true,"result":{"tuned":"06000000","enabled":"8","lambda":40}}`,
	`{"id":6,"ok":true,"result":{"in":[0,12],"out":[8,3],"ports":32}}`,
}

// FuzzWireDecode holds the decoder to encoding/json on arbitrary lines:
// it errs exactly when json.Unmarshal into the same message type errs,
// and otherwise yields the same message once typed arrays are widened.
func FuzzWireDecode(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var gotReq, wantReq wireRequest
		err, werr := decodeRequest(line, &gotReq), json.Unmarshal(line, &wantReq)
		if (err != nil) != (werr != nil) {
			t.Fatalf("request %q: decoder err = %v, encoding/json err = %v", line, err, werr)
		}
		if err == nil {
			if gotReq.Args != nil {
				gotReq.Args = generic(gotReq.Args).(map[string]any)
			}
			if !reflect.DeepEqual(gotReq, wantReq) {
				t.Fatalf("request %q: decoded %#v, encoding/json %#v", line, gotReq, wantReq)
			}
		}

		var gotResp, wantResp wireResponse
		err, werr = decodeResponse(line, &gotResp), json.Unmarshal(line, &wantResp)
		if (err != nil) != (werr != nil) {
			t.Fatalf("response %q: decoder err = %v, encoding/json err = %v", line, err, werr)
		}
		if err == nil {
			if gotResp.Result != nil {
				gotResp.Result = generic(gotResp.Result).(map[string]any)
			}
			if !reflect.DeepEqual(gotResp, wantResp) {
				t.Fatalf("response %q: decoded %#v, encoding/json %#v", line, gotResp, wantResp)
			}
		}
	})
}

// valueGen builds values of the protocol's closed set from fuzz bytes.
type valueGen struct{ b []byte }

func (g *valueGen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *valueGen) int() int {
	n := int(int8(g.byte()))
	if n%7 == 0 { // now and then something wide
		n *= math.MaxInt32 * int(g.byte())
	}
	return n
}

func (g *valueGen) string() string {
	n := int(g.byte() % 8)
	if n > len(g.b) {
		n = len(g.b)
	}
	s := string(g.b[:n])
	g.b = g.b[n:]
	return s
}

// key is a string that survives JSON unchanged, so two keys of one
// object cannot collapse into one on the wire.
func (g *valueGen) key() string { return strings.ToValidUTF8(g.string(), "?") }

func (g *valueGen) value(depth int) any {
	kind := g.byte() % 10
	if depth > 3 && kind >= 7 {
		kind %= 7
	}
	n := int(g.byte() % 5)
	switch kind {
	case 0:
		return nil
	case 1:
		return g.byte()%2 == 0
	case 2:
		return g.int()
	case 3:
		return math.Float64frombits(uint64(g.int())<<32 | uint64(g.byte())<<8)
	case 4:
		return g.string()
	case 5:
		out := make([]int, n)
		for i := range out {
			out[i] = g.int()
		}
		return out
	case 6:
		out := make([]bool, n)
		for i := range out {
			out[i] = g.byte()%2 == 0
		}
		return out
	case 7:
		out := make(map[string]int, n)
		for i := 0; i < n; i++ {
			out[g.key()] = g.int()
		}
		return out
	case 8:
		out := make([]any, n)
		for i := range out {
			out[i] = g.value(depth + 1)
		}
		return out
	default:
		return g.object(depth+1, n)
	}
}

func (g *valueGen) object(depth, n int) map[string]any {
	out := make(map[string]any, n)
	for i := 0; i < n; i++ {
		out[g.key()] = g.value(depth)
	}
	return out
}

// encodable reports whether the encoder must accept v: everything in the
// closed set but a NaN or an infinity, which JSON cannot carry.
func encodable(v any) bool {
	switch v := v.(type) {
	case float64:
		return !math.IsNaN(v) && !math.IsInf(v, 0)
	case []any:
		for _, e := range v {
			if !encodable(e) {
				return false
			}
		}
	case map[string]any:
		for _, e := range v {
			if !encodable(e) {
				return false
			}
		}
	}
	return true
}

// FuzzWireRoundTrip checks encode → decode on the protocol's value kinds:
// the encoder's line is valid JSON that encoding/json reads as the same
// message, and the decoder gives the message back (in generic form: a
// scalar int comes back a float64, as over any JSON transport).
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(int64(1), "state", []byte{9, 3, 4, 2, 'i', 'd', 5, 3, 1, 2, 3})
	f.Add(int64(-7), "tune-batch", []byte{9, 2, 4, 'i', 'd', 'x', 's', 5, 4, 0, 3, 7, 9})
	f.Add(int64(0), "quote\"back\\slash\n\xff", []byte{9, 4, 1, 'k', 3, 0x7f, 0xf0, 0, 0, 2, 'a', 'b', 8, 3, 6, 2, 1, 0})
	f.Fuzz(func(t *testing.T, id int64, op string, seed []byte) {
		g := &valueGen{b: seed}
		args := g.object(0, int(g.byte()%5))
		req := wireRequest{ID: id, Op: op, Args: args}
		resp := wireResponse{ID: id, OK: id%2 == 0, Error: op, Result: args}

		reqLine, err := appendRequest(nil, &req)
		if !encodable(args) {
			if err == nil {
				t.Fatalf("encoded a value JSON cannot carry: %#v", args)
			}
			return
		}
		if err != nil {
			t.Fatalf("encode %#v: %v", req, err)
		}
		respLine, err := appendResponse(nil, &resp)
		if err != nil {
			t.Fatalf("encode %#v: %v", resp, err)
		}
		wantReq := wireRequest{ID: id, Op: generic(op).(string), Args: genericArgs(args)}
		wantResp := wireResponse{ID: id, OK: resp.OK, Error: wantReq.Op, Result: wantReq.Args}

		for _, line := range [][]byte{reqLine, respLine} {
			if line[len(line)-1] != '\n' || bytes.IndexByte(line, '\n') != len(line)-1 {
				t.Fatalf("%q is not one newline-terminated line", line)
			}
			if !json.Valid(line) {
				t.Fatalf("encoder wrote invalid JSON: %q", line)
			}
		}
		var jsonReq, gotReq wireRequest
		if err := json.Unmarshal(reqLine, &jsonReq); err != nil || !reflect.DeepEqual(jsonReq, wantReq) {
			t.Fatalf("encoding/json reads %q as %#v (%v), want %#v", reqLine, jsonReq, err, wantReq)
		}
		if err := decodeRequest(reqLine, &gotReq); err != nil {
			t.Fatalf("decode %q: %v", reqLine, err)
		}
		gotReq.Args = genericArgs(gotReq.Args)
		if !reflect.DeepEqual(gotReq, wantReq) {
			t.Fatalf("round trip of %q gave %#v, want %#v", reqLine, gotReq, wantReq)
		}
		var jsonResp, gotResp wireResponse
		if err := json.Unmarshal(respLine, &jsonResp); err != nil || !reflect.DeepEqual(jsonResp, wantResp) {
			t.Fatalf("encoding/json reads %q as %#v (%v), want %#v", respLine, jsonResp, err, wantResp)
		}
		if err := decodeResponse(respLine, &gotResp); err != nil {
			t.Fatalf("decode %q: %v", respLine, err)
		}
		gotResp.Result = genericArgs(gotResp.Result)
		if !reflect.DeepEqual(gotResp, wantResp) {
			t.Fatalf("round trip of %q gave %#v, want %#v", respLine, gotResp, wantResp)
		}
	})
}

// TestWireTypedArrays pins what the decoder hands the devices and the
// audit: a typed slice for an array of integers, and nothing silently
// coerced.
func TestWireTypedArrays(t *testing.T) {
	var r wireResponse
	line := `{"id":1,"ok":true,"result":{"i":[1,-2,3],"b":[true,false],"e":[],"m":[1,true],"f":[1,2.5],"n":[null],"big":[9223372036854775808]}}`
	if err := decodeResponse([]byte(line), &r); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"i": []int{1, -2, 3}, "b": []any{true, false}, "e": []any{},
		"m": []any{1.0, true}, "f": []any{1.0, 2.5}, "n": []any{nil},
		"big": []any{9223372036854775808.0},
	}
	if !reflect.DeepEqual(r.Result, want) {
		t.Errorf("decoded %#v\nwant %#v", r.Result, want)
	}
}

// FuzzServeConn feeds a device agent an arbitrary byte stream: it must
// answer every input line with exactly one well-formed response line,
// whatever the line holds, and return when the stream ends.
func FuzzServeConn(f *testing.F) {
	f.Add([]byte("this is not json\n{\"id\":7,\"op\":\"ping\"}\n"))
	f.Add([]byte(strings.Join(wireSeeds[:12], "\n")))
	f.Add([]byte("{\"id\":1,\"op\":\"echo\",\"args\":{\"a\":[1,2],\"b\":[true],\"c\":{\"d\":\"\\u00e9\"},\"e\":1.5e300}}\n\n\r\n{\"id\":2,\"op\":\"state\"}"))
	f.Add([]byte("{\"id\":1,\"op\":\"tune-batch\",\"args\":{\"idxs\":[0,1],\"wavelengths\":[3]}}\n{\"id\":2,\"op\":\"enable-batch\",\"args\":{\"idxs\":[0,9]}}\n"))
	f.Fuzz(func(t *testing.T, stream []byte) {
		lines := 0
		in := newLineScanner(bytes.NewReader(stream))
		for in.Scan() {
			lines++
		}
		if errors.Is(in.Err(), bufio.ErrTooLong) {
			lines++ // the over-long line is answered before the hang-up
		}

		// The device answers "echo" with its arguments, so whatever the
		// decoder produced goes back out through the encoder; every other
		// op goes to a real transceiver bank.
		dev := devicetest.Wrap(NewTransceiverBank(4, 8))
		dev.Arm(func(op string, args map[string]any, next devicetest.Next) (map[string]any, error) {
			if op == "echo" {
				return args, nil
			}
			return next(op, args)
		})
		var out bytes.Buffer
		serveConn(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(stream), &out}, dev)

		if out.Len() > 0 && out.Bytes()[out.Len()-1] != '\n' {
			t.Fatalf("output does not end in a newline: %q", out.Bytes())
		}
		answers := bytes.Split(bytes.TrimSuffix(out.Bytes(), []byte("\n")), []byte("\n"))
		if out.Len() == 0 {
			answers = nil
		}
		if len(answers) != lines {
			t.Fatalf("%d response lines to %d request lines\nin:  %q\nout: %q", len(answers), lines, stream, out.Bytes())
		}
		for _, a := range answers {
			var viaJSON, viaCodec wireResponse
			if err := json.Unmarshal(a, &viaJSON); err != nil {
				t.Fatalf("response %q is not a JSON message: %v", a, err)
			}
			if err := decodeResponse(a, &viaCodec); err != nil {
				t.Fatalf("response %q does not decode: %v", a, err)
			}
			if viaJSON.OK == (viaJSON.Error != "") {
				t.Fatalf("response %q is neither a result nor an error", a)
			}
		}
	})
}
