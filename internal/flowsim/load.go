package flowsim

import (
	"container/heap"
	"math"
	"math/rand"

	"iris/internal/parallel"
	"iris/internal/traffic"
)

// This file is the flow engine, built for user scale: fluid processor
// sharing per pipe, structured so a region can carry millions of
// concurrent flows. The active set is
// a two-level credit calendar — an unsorted ring of coarse credit
// buckets with only the head bucket expanded into an exact min-heap — so
// an arrival is O(1), a capacity change is O(1), and a departure touches
// the small head heap instead of a million-entry one. With a flat
// arrival shape the engine consumes the per-pipe RNG stream in exactly
// the order the heap-based reference simulator (simulatePipe, kept in
// exact_test.go) does and replays the same event sequence, which is what
// lets run record per-flow results from it and the validation tests
// compare the two flow-for-flow.

// LoadConfig drives one user-scale load run.
type LoadConfig struct {
	Seed      int64
	DurationS float64
	// WarmupS excludes flows arriving before this time from the sketches.
	WarmupS float64
	Dist    traffic.SizeDist
	Pipes   []Pipe
	// Dips maps pipe index to its reconfiguration events.
	Dips map[int][]Dip
	// Shape optionally modulates arrivals (diurnal swing, flash crowds)
	// via thinning of a homogeneous Poisson envelope. Nil or flat keeps
	// arrivals identical to run's.
	Shape *traffic.Shape
}

// LoadStats aggregates one run. FCT quantiles come from streaming
// sketches rather than per-flow records, so memory is flat in the flow
// count.
type LoadStats struct {
	// Flows and ShortFlows count completed post-warmup flows (short =
	// under traffic.ShortFlowBytes).
	Flows      uint64
	ShortFlows uint64
	// Incomplete counts flows still active when the run ended.
	Incomplete uint64
	// BytesCompleted sums the sizes of counted flows.
	BytesCompleted float64
	// BytesStranded integrates capacity removed by dips while flows were
	// waiting: for each interval, capacity × fraction-lost × time, summed
	// only while the pipe had active flows. It is the demand the drain
	// actually displaced, not just the capacity withdrawn.
	BytesStranded float64
	// PeakConcurrent sums each pipe's peak active-flow count. Pipes are
	// independent, so this is the region's peak when dips align (a
	// region-wide outage) and an upper bound otherwise.
	PeakConcurrent uint64
	// FCT and ShortFCT are the completion-time sketches.
	FCT      *Sketch
	ShortFCT *Sketch
}

// RunLoad simulates all pipes in parallel, on up to GOMAXPROCS workers,
// and merges their statistics in pipe order, so the result is independent
// of scheduling.
func RunLoad(cfg LoadConfig) (LoadStats, error) {
	mean, err := validate(cfg.DurationS, cfg.Dist, cfg.Pipes)
	if err != nil {
		return LoadStats{}, err
	}

	per := make([]LoadStats, len(cfg.Pipes))
	err = parallel.ForEach(len(cfg.Pipes), 0, func(i int) error {
		per[i] = loadPipe(pipeRNG(cfg.Seed, i), cfg.Pipes[i], cfg.Dips[i], cfg.Dist, mean,
			0, cfg.DurationS, cfg.WarmupS, cfg.Shape, nil)
		return nil
	})
	if err != nil {
		return LoadStats{}, err
	}

	out := LoadStats{FCT: newSketch(), ShortFCT: newSketch()}
	for i := range per {
		out.Flows += per[i].Flows
		out.ShortFlows += per[i].ShortFlows
		out.Incomplete += per[i].Incomplete
		out.BytesCompleted += per[i].BytesCompleted
		out.BytesStranded += per[i].BytesStranded
		out.PeakConcurrent += per[i].PeakConcurrent
		out.FCT.merge(per[i].FCT)
		out.ShortFCT.merge(per[i].ShortFCT)
	}
	return out, nil
}

// creditCalendar holds a pipe's active flows keyed by the credit value
// at which each completes. Absolute bucket number = doneAtCredit/width;
// buckets at or below headAbs live in an exact min-heap, later buckets
// in unsorted ring slots. Because every live flow's completion credit is
// within one maximum flow size of the current credit, the ring stays
// small and never wraps onto itself.
type creditCalendar struct {
	width   float64
	ring    [][]activeFlow
	headAbs int64 // highest absolute bucket covered by the heap
	heap    flowHeap
	count   int
}

func newCreditCalendar(width, maxSize float64) *creditCalendar {
	slots := int(maxSize/width) + 3
	return &creditCalendar{width: width, ring: make([][]activeFlow, slots)}
}

func (c *creditCalendar) push(f activeFlow) {
	b := int64(f.doneAtCredit / c.width)
	if b <= c.headAbs {
		heap.Push(&c.heap, f)
	} else {
		slot := int(b % int64(len(c.ring)))
		c.ring[slot] = append(c.ring[slot], f)
	}
	c.count++
}

// minDone returns the smallest completion credit, expanding ring buckets
// into the head heap as needed. Each flow is heapified exactly once, so
// the amortized cost per flow is O(log headBucketSize).
func (c *creditCalendar) minDone() (float64, bool) {
	if c.count == 0 {
		return 0, false
	}
	for len(c.heap) == 0 {
		c.headAbs++
		slot := int(c.headAbs % int64(len(c.ring)))
		if len(c.ring[slot]) > 0 {
			c.heap = append(c.heap, c.ring[slot]...)
			c.ring[slot] = c.ring[slot][:0]
			heap.Init(&c.heap)
		}
	}
	return c.heap[0].doneAtCredit, true
}

func (c *creditCalendar) pop() activeFlow {
	c.count--
	return heap.Pop(&c.heap).(activeFlow)
}

// loadPipe is the per-pipe event loop behind run and RunLoad: exact
// processor sharing with a piecewise-constant capacity by the credit
// method — credit(t) integrates the per-flow service rate C(t)/N(t), and a
// flow arriving at credit c0 with size s finishes when credit reaches
// c0+s. It keeps streaming statistics, and hands every counted flow to
// sink when one is given. width is the calendar's bucket width in credit
// bytes; <=0 picks the largest flow size/64, keeping the ring at ~66
// buckets. The event sequence does not depend on it.
func loadPipe(rng *rand.Rand, p Pipe, dips []Dip, dist traffic.SizeDist,
	meanBytes, width, durationS, warmupS float64, shape *traffic.Shape,
	sink func(sizeBytes, arriveS, fctS float64)) LoadStats {

	if width <= 0 {
		width = dist.Max() / 64
	}

	capBytesPerS := p.CapacityGbps * 1e9 / 8
	lambda := p.UtilFrac * capBytesPerS / meanBytes

	// Shaped arrivals are a thinned homogeneous process at the envelope
	// rate lambda*MaxMult: each candidate is accepted with probability
	// Mult(t)/MaxMult. With no shape the envelope is lambda itself and no
	// acceptance draw is made, so the RNG stream — arrival gap, then flow
	// size, repeated — matches the reference simulator's draw for draw.
	maxMult := 1.0
	if shape != nil {
		maxMult = shape.MaxMult()
	}
	lambdaMax := lambda * maxMult

	timeline := newCapTimeline(dips)
	cal := newCreditCalendar(width, dist.Max())
	st := LoadStats{FCT: newSketch(), ShortFCT: newSketch()}
	credit := 0.0

	t := 0.0
	nextArrival := math.Inf(1)
	if lambdaMax > 0 {
		nextArrival = rng.ExpFloat64() / lambdaMax
	}

	currentCap := func() float64 { return capBytesPerS * timeline.mult }

	for t < durationS {
		nextDeparture := math.Inf(1)
		if cal.count > 0 && currentCap() > 0 {
			done, _ := cal.minDone()
			perFlow := currentCap() / float64(cal.count)
			nextDeparture = t + (done-credit)/perFlow
		}
		nextChange := timeline.next()
		next := math.Min(math.Min(nextArrival, nextChange), math.Min(nextDeparture, durationS))

		if cal.count > 0 {
			if currentCap() > 0 {
				credit += currentCap() / float64(cal.count) * (next - t)
			}
			st.BytesStranded += capBytesPerS * (1 - timeline.mult) * (next - t)
		}
		t = next
		switch {
		case t == nextDeparture && cal.count > 0:
			f := cal.pop()
			if f.arriveS >= warmupS {
				fct := t - f.arriveS
				if sink != nil {
					sink(f.sizeBytes, f.arriveS, fct)
				}
				st.Flows++
				st.BytesCompleted += f.sizeBytes
				st.FCT.observe(fct)
				if f.sizeBytes < traffic.ShortFlowBytes {
					st.ShortFlows++
					st.ShortFCT.observe(fct)
				}
			}
		case t == nextArrival:
			accept := true
			if maxMult != 1 {
				accept = rng.Float64()*maxMult <= shape.Mult(t)
			}
			if accept {
				size := dist.Sample(rng)
				cal.push(activeFlow{doneAtCredit: credit + size, sizeBytes: size, arriveS: t})
				if n := uint64(cal.count); n > st.PeakConcurrent {
					st.PeakConcurrent = n
				}
			}
			nextArrival = t + rng.ExpFloat64()/lambdaMax
		case t == nextChange:
			timeline.apply()
		}
	}
	st.Incomplete = uint64(cal.count)
	return st
}
