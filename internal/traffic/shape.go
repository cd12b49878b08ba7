package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// LoadProfile describes user-scale arrival modulation layered on a base
// load: a diurnal swing (the time-of-day cycle every user-facing region
// sees) and flash crowds (short windows where demand spikes, the §6.3
// "low-traffic pair becomes high-traffic" event at flow granularity).
// The zero value is a flat profile. Instantiate with NewShape, which
// draws the flash-crowd windows for a run horizon.
type LoadProfile struct {
	// DiurnalAmp in [0,1) swings the rate by ±Amp around 1 with period
	// DiurnalPeriodS, starting at the mean and rising. Zero amp disables
	// the swing.
	DiurnalAmp     float64
	DiurnalPeriodS float64
	// FlashEveryS is the mean interval between flash-crowd onsets (a
	// Poisson process; 0 disables flashes). Each flash lasts
	// FlashDurationS and multiplies the rate by FlashMult (≥ 1).
	FlashEveryS    float64
	FlashDurationS float64
	FlashMult      float64
}

// Flat reports whether the profile modulates nothing.
func (p LoadProfile) Flat() bool {
	diurnal := p.DiurnalAmp > 0 && p.DiurnalPeriodS > 0
	flash := p.FlashEveryS > 0 && p.FlashDurationS > 0 && p.FlashMult > 1
	return !diurnal && !flash
}

// Shape is a LoadProfile instantiated for one run: the flash-crowd
// windows are drawn up front from the seed, so Mult is a pure function
// of time — deterministic, and safe for concurrent use from the load
// engine's per-pipe workers.
type Shape struct {
	p       LoadProfile
	flashes []flashWindow // sorted by start, non-overlapping
}

type flashWindow struct{ start, end float64 }

// NewShape validates the profile and draws its flash windows over
// [0, horizonS]. Overlapping draws are merged so FlashMult never
// compounds.
func NewShape(seed int64, p LoadProfile, horizonS float64) (*Shape, error) {
	if p.DiurnalAmp < 0 || p.DiurnalAmp >= 1 {
		return nil, fmt.Errorf("traffic: diurnal amplitude %v outside [0,1)", p.DiurnalAmp)
	}
	if p.DiurnalAmp > 0 && p.DiurnalPeriodS <= 0 {
		return nil, fmt.Errorf("traffic: diurnal amplitude without a period")
	}
	if p.FlashEveryS < 0 || p.FlashDurationS < 0 {
		return nil, fmt.Errorf("traffic: negative flash parameters")
	}
	if p.FlashEveryS > 0 && p.FlashMult < 1 {
		return nil, fmt.Errorf("traffic: flash multiplier %v below 1", p.FlashMult)
	}
	s := &Shape{p: p}
	if p.FlashEveryS > 0 && p.FlashDurationS > 0 && p.FlashMult > 1 {
		rng := rand.New(rand.NewSource(seed))
		t := rng.ExpFloat64() * p.FlashEveryS
		for t < horizonS {
			s.flashes = append(s.flashes, flashWindow{start: t, end: t + p.FlashDurationS})
			t += rng.ExpFloat64() * p.FlashEveryS
		}
		// Merge overlaps so a flash window never stacks on itself.
		merged := s.flashes[:0]
		for _, w := range s.flashes {
			if n := len(merged); n > 0 && w.start <= merged[n-1].end {
				if w.end > merged[n-1].end {
					merged[n-1].end = w.end
				}
				continue
			}
			merged = append(merged, w)
		}
		s.flashes = merged
	}
	return s, nil
}

// Mult returns the rate multiplier at time t.
func (s *Shape) Mult(t float64) float64 {
	m := 1.0
	if s.p.DiurnalAmp > 0 && s.p.DiurnalPeriodS > 0 {
		m += s.p.DiurnalAmp * math.Sin(2*math.Pi*t/s.p.DiurnalPeriodS)
	}
	if len(s.flashes) > 0 {
		// First window ending after t; t is inside it iff it also started.
		i := sort.Search(len(s.flashes), func(i int) bool { return s.flashes[i].end > t })
		if i < len(s.flashes) && s.flashes[i].start <= t {
			m *= s.p.FlashMult
		}
	}
	return m
}

// MaxMult bounds Mult over all times — the thinning envelope for
// non-homogeneous Poisson arrivals.
func (s *Shape) MaxMult() float64 {
	m := 1 + s.p.DiurnalAmp
	if len(s.flashes) > 0 {
		m *= s.p.FlashMult
	}
	return m
}

// Flashes returns the number of distinct flash-crowd windows drawn.
func (s *Shape) Flashes() int { return len(s.flashes) }

// Shaped layers a load shape onto a matrix feed: the i-th yielded matrix
// is scaled by sh.Mult(i*stepS), modelling diurnal and flash-crowd swings
// of the whole region's demand on top of the underlying change process
// (typically an Evolver). When caps is non-nil the scaled matrix is
// clamped to those hose capacities, so a flash crowd saturates the region
// instead of yielding an unallocatable demand. Exhaustion passes through
// and stays idempotent per the Source contract.
func Shaped(s Source, sh *Shape, stepS float64, caps map[int]float64) Source {
	if sh == nil {
		return s
	}
	return &shaped{s: s, sh: sh, stepS: stepS, caps: caps}
}

type shaped struct {
	s     Source
	sh    *Shape
	stepS float64
	caps  map[int]float64
	step  int
}

func (x *shaped) Next() (*Matrix, bool) {
	m, ok := x.s.Next()
	if !ok {
		return nil, false
	}
	mult := x.sh.Mult(float64(x.step) * x.stepS)
	x.step++
	for _, p := range m.Pairs() {
		m.Set(p, m.Get(p)*mult)
	}
	if x.caps != nil {
		m.ClampToHose(x.caps)
	}
	return m, ok
}
