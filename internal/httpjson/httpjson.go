// Package httpjson is the one writer of the HTTP planes' JSON bodies. A
// body with an AppendJSON method (built on jsonw's primitives) appends
// itself into a pooled buffer; any other body goes through encoding/json.
// It is apart from jsonw so that jsonw's primitives, which the device
// plane's line codec writes its strings with, link no HTTP stack.
package httpjson

import (
	"encoding/json"
	"net/http"
	"sync"

	"iris/internal/jsonw"
)

// appender is a body with an AppendJSON method that appends its own JSON
// encoding to dst: exactly the bytes json.Marshal writes for it, which
// its tests hold it to.
type appender interface {
	AppendJSON(dst []byte) []byte
}

// bufPool lends Write the buffer a body is appended into, so a warmed
// read allocates nothing for its bytes.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooled is the largest buffer kept for reuse: a rare large body (a
// long history listing) is not held for every later read.
const maxPooled = 1 << 20

// contentType is the header value of every body, shared so that setting
// it allocates nothing; nothing writes the slice.
var contentType = []string{"application/json"}

// Write answers with v as one compact JSON body and status code. A body
// with an AppendJSON method appends itself into a pooled buffer; any
// other value goes through json.Marshal. A body that cannot be encoded
// (NaN, ±Inf) answers 500 with a JSON error body instead: never a 200
// with no body.
func Write(w http.ResponseWriter, code int, v any) {
	bp := bufPool.Get().(*[]byte)
	b, err := appendBody((*bp)[:0], v)
	if err != nil {
		code = http.StatusInternalServerError
		b = appendError(b[:0], "encode: "+err.Error())
	}
	w.Header()["Content-Type"] = contentType
	w.WriteHeader(code)
	_, _ = w.Write(b) // the client has gone; there is no one to tell
	if cap(b) <= maxPooled {
		*bp = b[:0]
		bufPool.Put(bp)
	}
}

// Error answers with code and the body {"error": msg}, so API consumers
// never have to sniff between payloads and plain-text errors.
func Error(w http.ResponseWriter, code int, msg string) {
	Write(w, code, errorBody(msg))
}

// errorBody is the body of every error answer.
type errorBody string

func (e errorBody) AppendJSON(dst []byte) []byte { return appendError(dst, string(e)) }

func appendError(dst []byte, msg string) []byte {
	return append(jsonw.String(append(dst, `{"error":`...), msg), '}')
}

// appendBody appends v's encoding to dst, recovering the panic a
// primitive raises for a value JSON cannot hold into its error.
func appendBody(dst []byte, v any) (b []byte, err error) {
	a, ok := v.(appender)
	if !ok {
		body, err := json.Marshal(v)
		return append(dst, body...), err
	}
	defer func() {
		if r := recover(); r != nil {
			uerr, ok := r.(*json.UnsupportedValueError)
			if !ok {
				panic(r)
			}
			b, err = dst, uerr
		}
	}()
	return a.AppendJSON(dst), nil
}
