package httpjson

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"iris/internal/jsonw"
)

// unencodable appends a float that has no JSON form.
type unencodable struct{}

func (unencodable) AppendJSON(b []byte) []byte { return jsonw.Float(append(b, `{"x":`...), math.NaN()) }

// TestWrite: an appended and a reflected value are written as one JSON
// body with the status asked for; one that cannot be encoded, either
// way, answers 500 with a JSON error body.
func TestWrite(t *testing.T) {
	for _, tc := range []struct {
		name           string
		code, wantCode int
		v              any
		want           string
	}{
		{"appender", http.StatusTeapot, http.StatusTeapot, errorBody("x<y"), `{"error":"x\u003cy"}`},
		{"reflected", http.StatusOK, http.StatusOK, map[string]int{"b": 2, "a": 1}, `{"a":1,"b":2}`},
		{"appended NaN", http.StatusOK, http.StatusInternalServerError, unencodable{}, `{"error":"encode: json: unsupported value: NaN"}`},
		{"reflected NaN", http.StatusOK, http.StatusInternalServerError, map[string]any{"x": math.NaN()}, `{"error":"encode: json: unsupported value: NaN"}`},
	} {
		w := httptest.NewRecorder()
		Write(w, tc.code, tc.v)
		if w.Code != tc.wantCode || w.Body.String() != tc.want || w.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s: %d %s %q, want %d %s application/json", tc.name, w.Code, w.Body, w.Header().Get("Content-Type"), tc.wantCode, tc.want)
		}
	}
	w := httptest.NewRecorder()
	Error(w, http.StatusNotFound, "no such \"thing\"")
	if w.Code != http.StatusNotFound || w.Body.String() != `{"error":"no such \"thing\""}` {
		t.Errorf("Error: %d %s", w.Code, w.Body)
	}
}
