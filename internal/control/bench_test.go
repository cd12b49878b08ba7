package control

import "testing"

// BenchmarkWireCodec measures the line protocol's codec on the largest
// message of a tick: the state reply of a 400-transceiver bank (what a
// probe round fetches from every bank, and what a bank's last write of a
// change answers with). Encoding into a reused
// buffer is gated at zero allocations; decoding allocates the result map
// and its two packed strings.
func BenchmarkWireCodec(b *testing.B) {
	bank := NewTransceiverBank(400, 40)
	for i := 0; i < 400; i += 3 {
		bank.tuned[i], bank.enabled[i] = i%40, true
	}
	state, err := bank.Handle("state", nil)
	if err != nil {
		b.Fatal(err)
	}
	resp := &wireResponse{ID: 12345, OK: true, Result: state}
	line, err := appendResponse(nil, resp)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, 2*len(line))
		encode := func() {
			if buf, err = appendResponse(buf[:0], resp); err != nil {
				b.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(100, encode); allocs != 0 {
			b.Fatalf("encoding a state reply allocates %.1f times, want 0", allocs)
		}
		b.ReportAllocs()
		b.SetBytes(int64(len(line)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			encode()
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(line)))
		for i := 0; i < b.N; i++ {
			var r wireResponse
			if err := decodeResponse(line, &r); err != nil {
				b.Fatal(err)
			}
			if len(r.Result["tuned"].(string)) != 800 || len(r.Result["enabled"].(string)) != 100 {
				b.Fatalf("decoded %v", r.Result)
			}
		}
	})
}
