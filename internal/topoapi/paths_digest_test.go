package topoapi

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"testing"
)

// pathsDigest is the SHA-256 of every /api/paths body on staticRegion, for
// every ordered pair of distinct DCs at k = 1, 3, 8 and 16, each body
// followed by a newline. Yen's algorithm and its spur searches may get
// cheaper; they may not answer differently.
const pathsDigest = "7fc58cfb49adc9172d2b2f173dec478c6e52312ed8a4cd658cf58b79738e5646"

func TestPathsBodiesPinned(t *testing.T) {
	snap := staticRegion(t)
	mux := http.NewServeMux()
	New(Config{State: func() *Snapshot { return snap }}).Register(mux)
	dcs := snap.Dep.Region.Map.DCs()
	h := sha256.New()
	for _, k := range []int{1, 3, 8, 16} {
		for _, from := range dcs {
			for _, to := range dcs {
				if from == to {
					continue
				}
				h.Write(get(t, mux, fmt.Sprintf("/api/paths?from=%d&to=%d&k=%d", from, to, k)))
				h.Write([]byte{'\n'})
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != pathsDigest {
		t.Errorf("/api/paths bodies hash to %s, want %s", got, pathsDigest)
	}
}
