// Package traffic models regional DC-to-DC traffic for the reconfiguration
// study of §6.3: heavy-tailed pair-level demand matrices with a bounded or
// unbounded change process, and the empirical flow-size distributions the
// paper simulates (the pFabric web-search workload and Facebook's web,
// hadoop and cache workloads).
package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// SizeDist is an empirical flow-size distribution given as CDF breakpoints
// with log-linear interpolation between them — the standard representation
// of the published workload CDFs.
type SizeDist struct {
	name string
	// bytes[i] has cumulative probability cdf[i]; bytes ascending,
	// cdf ascending and ending at 1.
	bytes []float64
	cdf   []float64
}

// Name returns the workload name ("web1", "web2", "hadoop", "cache").
func (d SizeDist) Name() string { return d.name }

// newSizeDist builds a distribution from breakpoints. It panics on
// malformed tables, which are programming errors in workload definitions.
func newSizeDist(name string, bytes, cdf []float64) SizeDist {
	if len(bytes) != len(cdf) || len(bytes) < 2 {
		panic(fmt.Sprintf("traffic: malformed size table %q", name))
	}
	for i := 1; i < len(bytes); i++ {
		if bytes[i] <= bytes[i-1] || cdf[i] < cdf[i-1] {
			panic(fmt.Sprintf("traffic: non-monotone size table %q at %d", name, i))
		}
	}
	if cdf[0] != 0 || cdf[len(cdf)-1] != 1 {
		panic(fmt.Sprintf("traffic: size table %q must span CDF [0,1]", name))
	}
	return SizeDist{name: name, bytes: bytes, cdf: cdf}
}

// Sample draws one flow size in bytes by inverse-CDF sampling with
// log-linear interpolation.
func (d SizeDist) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	i := sort.SearchFloat64s(d.cdf, u)
	if i == 0 {
		return d.bytes[0]
	}
	if i >= len(d.cdf) {
		return d.bytes[len(d.bytes)-1]
	}
	lo, hi := d.cdf[i-1], d.cdf[i]
	frac := 0.0
	if hi > lo {
		frac = (u - lo) / (hi - lo)
	}
	// Interpolate in log-size space: flow sizes span decades.
	logSize := math.Log(d.bytes[i-1]) + frac*(math.Log(d.bytes[i])-math.Log(d.bytes[i-1]))
	return math.Exp(logSize)
}

// Max returns the largest flow size the distribution can produce — the
// last breakpoint of the table. Callers sizing bounded structures (the
// flowsim load engine's credit calendar) rely on samples never
// exceeding it.
func (d SizeDist) Max() float64 { return d.bytes[len(d.bytes)-1] }

// Mean returns the distribution mean in bytes, computed by numerical
// integration of the interpolated CDF (adequate for arrival-rate sizing).
func (d SizeDist) Mean() float64 {
	const steps = 20000
	var sum float64
	for i := 0; i < steps; i++ {
		u := (float64(i) + 0.5) / steps
		sum += d.quantile(u)
	}
	return sum / steps
}

func (d SizeDist) quantile(u float64) float64 {
	i := sort.SearchFloat64s(d.cdf, u)
	if i == 0 {
		return d.bytes[0]
	}
	if i >= len(d.cdf) {
		return d.bytes[len(d.bytes)-1]
	}
	lo, hi := d.cdf[i-1], d.cdf[i]
	frac := 0.0
	if hi > lo {
		frac = (u - lo) / (hi - lo)
	}
	return math.Exp(math.Log(d.bytes[i-1]) + frac*(math.Log(d.bytes[i])-math.Log(d.bytes[i-1])))
}

// The four workloads of Figs. 17–18. The breakpoint tables approximate the
// published CDFs: the web-search workload of pFabric (Alizadeh et al.,
// reference [4] in the paper) and the web / hadoop / cache workloads of
// the Facebook datacenter study (Roy et al., reference [41]). All are
// dominated by short flows, which the paper deliberately chooses as the
// stress case for circuit reconfiguration.

// WebSearch returns the pFabric web-search workload (the paper's "web1").
func WebSearch() SizeDist {
	return newSizeDist("web1",
		[]float64{1e2, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7, 3e7},
		[]float64{0, 0.15, 0.30, 0.45, 0.60, 0.70, 0.80, 0.90, 1},
	)
}

// FBWeb returns the Facebook web-server workload (the paper's "web2").
func FBWeb() SizeDist {
	return newSizeDist("web2",
		[]float64{1e2, 1e3, 1e4, 1e5, 1e6, 1e7},
		[]float64{0, 0.30, 0.70, 0.90, 0.97, 1},
	)
}

// fbHadoop returns the Facebook hadoop workload.
func fbHadoop() SizeDist {
	return newSizeDist("hadoop",
		[]float64{1e2, 1e3, 1e4, 1e5, 1e6, 1e8},
		[]float64{0, 0.20, 0.50, 0.75, 0.90, 1},
	)
}

// fbCache returns the Facebook cache-follower workload.
func fbCache() SizeDist {
	return newSizeDist("cache",
		[]float64{1e2, 1e3, 1e4, 1e5, 1e6, 1e7},
		[]float64{0, 0.10, 0.40, 0.70, 0.90, 1},
	)
}

// Workloads returns the four evaluation workloads in Fig. 18 order.
func Workloads() []SizeDist {
	return []SizeDist{WebSearch(), FBWeb(), fbHadoop(), fbCache()}
}

// WorkloadByName resolves a workload by its Name (command-line flags).
func WorkloadByName(name string) (SizeDist, bool) {
	for _, d := range Workloads() {
		if d.Name() == name {
			return d, true
		}
	}
	return SizeDist{}, false
}

// ShortFlowBytes is the threshold below which the paper calls a flow
// "short" when reporting FCT slowdowns (§6.3).
const ShortFlowBytes = 50e3
