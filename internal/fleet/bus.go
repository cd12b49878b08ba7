package fleet

import (
	"math"
	"sort"
	"sync"
	"time"

	"iris/internal/daemon"
)

// demandSample is one region's hose aggregate as published on the bus:
// the region's DemandSummary stamped with who published it and when.
type demandSample struct {
	Region string    `json:"region"`
	At     time.Time `json:"at"`
	daemon.DemandSummary
}

// bus is the fleet's gossip-style demand exchange: regions publish their
// hose aggregates after each convergence, consumers read the latest
// sample per region. It is last-writer-wins per region — there is no
// history, matching the gossip model where only the freshest view
// matters.
type bus struct {
	now func() time.Time

	mu     sync.RWMutex
	latest map[string]demandSample
}

// newBus returns an empty bus stamping samples with now (time.Now if
// nil).
func newBus(now func() time.Time) *bus {
	if now == nil {
		now = time.Now
	}
	return &bus{now: now, latest: make(map[string]demandSample)}
}

// publish replaces region's sample on the bus.
func (b *bus) publish(region string, dm daemon.DemandSummary) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.latest[region] = demandSample{Region: region, At: b.now(), DemandSummary: dm}
}

// snapshot returns the latest sample from every region, ordered by
// region id.
func (b *bus) snapshot() []demandSample {
	b.mu.RLock()
	out := make([]demandSample, 0, len(b.latest))
	for _, s := range b.latest {
		out = append(out, s)
	}
	b.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Region < out[j].Region })
	return out
}

// SkewReport distils the bus into the fleet's cross-region demand-skew
// signal: how unevenly total demand is spread over regions right now.
// Skew is max/mean (1 = perfectly even); CV is the coefficient of
// variation (stddev/mean, 0 = perfectly even).
type SkewReport struct {
	// Regions is the number of regions with a published sample.
	Regions int `json:"regions"`
	// Total sums every region's total demand, in wavelength units.
	Total float64 `json:"total"`
	Mean  float64 `json:"mean"`
	// Min/Max identify the least- and most-loaded regions.
	Min       float64 `json:"min"`
	MinRegion string  `json:"min_region,omitempty"`
	Max       float64 `json:"max"`
	MaxRegion string  `json:"max_region,omitempty"`
	// Skew is Max/Mean; 1 means perfectly even. 0 when no samples.
	Skew float64 `json:"skew"`
	// CV is stddev/mean; 0 means perfectly even.
	CV float64 `json:"cv"`
}

// skew computes the current cross-region demand skew from the bus.
func (b *bus) skew() SkewReport {
	samples := b.snapshot()
	r := SkewReport{Regions: len(samples)}
	if len(samples) == 0 {
		return r
	}
	r.Min = math.Inf(1)
	for _, s := range samples {
		r.Total += s.Total
		if s.Total < r.Min {
			r.Min, r.MinRegion = s.Total, s.Region
		}
		if s.Total > r.Max {
			r.Max, r.MaxRegion = s.Total, s.Region
		}
	}
	r.Mean = r.Total / float64(len(samples))
	if r.Mean > 0 {
		r.Skew = r.Max / r.Mean
		var ss float64
		for _, s := range samples {
			d := s.Total - r.Mean
			ss += d * d
		}
		r.CV = math.Sqrt(ss/float64(len(samples))) / r.Mean
	}
	return r
}
