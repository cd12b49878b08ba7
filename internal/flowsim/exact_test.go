package flowsim

import (
	"container/heap"
	"math"
	"math/rand"
	"sort"

	"iris/internal/traffic"
)

// This file keeps the simulator that run was built on before it shared the
// load engine's event loop: one container/heap of every active flow per
// pipe. It is the oracle the engine is compared against flow for flow.

// runExact is run over simulatePipe.
func runExact(cfg config) (result, error) {
	mean, err := validate(cfg.DurationS, cfg.Dist, cfg.Pipes)
	if err != nil {
		return result{}, err
	}
	var res result
	for i, p := range cfg.Pipes {
		flows, inc := simulatePipe(pipeRNG(cfg.Seed, i), i, p, cfg.Dips[i], cfg.Dist, mean, cfg.DurationS, cfg.WarmupS)
		res.Flows = append(res.Flows, flows...)
		res.Incomplete += inc
	}
	sort.Slice(res.Flows, func(i, j int) bool {
		if res.Flows[i].ArriveS != res.Flows[j].ArriveS {
			return res.Flows[i].ArriveS < res.Flows[j].ArriveS
		}
		return res.Flows[i].Pipe < res.Flows[j].Pipe
	})
	return res, nil
}

// simulatePipe runs exact processor sharing with a piecewise-constant
// capacity using the credit method: credit(t) integrates the per-flow
// service rate C(t)/N(t); a flow arriving at credit c0 with size s
// finishes when credit reaches c0+s.
func simulatePipe(rng *rand.Rand, pipeIdx int, p Pipe, dips []Dip, dist traffic.SizeDist,
	meanBytes, durationS, warmupS float64) ([]flow, int) {

	capBytesPerS := p.CapacityGbps * 1e9 / 8
	lambda := p.UtilFrac * capBytesPerS / meanBytes // flows per second

	timeline := newCapTimeline(dips)

	var flows []flow
	active := &flowHeap{}
	credit := 0.0

	t := 0.0
	nextArrival := t
	if lambda > 0 {
		nextArrival = rng.ExpFloat64() / lambda
	} else {
		nextArrival = math.Inf(1)
	}

	currentCap := func() float64 { return capBytesPerS * timeline.mult }

	for t < durationS {
		// Next departure under the current rate.
		nextDeparture := math.Inf(1)
		if active.Len() > 0 && currentCap() > 0 {
			perFlow := currentCap() / float64(active.Len())
			nextDeparture = t + ((*active)[0].doneAtCredit-credit)/perFlow
		}
		nextChange := timeline.next()
		next := math.Min(math.Min(nextArrival, nextChange), math.Min(nextDeparture, durationS))

		// Advance credit over [t, next].
		if active.Len() > 0 && currentCap() > 0 {
			credit += currentCap() / float64(active.Len()) * (next - t)
		}
		t = next
		switch {
		case t == nextDeparture && active.Len() > 0:
			f := heap.Pop(active).(activeFlow)
			if f.arriveS >= warmupS {
				flows = append(flows, flow{
					Pipe:      pipeIdx,
					SizeBytes: f.sizeBytes,
					ArriveS:   f.arriveS,
					FCTSec:    t - f.arriveS,
				})
			}
		case t == nextArrival:
			size := dist.Sample(rng)
			heap.Push(active, activeFlow{
				doneAtCredit: credit + size,
				sizeBytes:    size,
				arriveS:      t,
			})
			nextArrival = t + rng.ExpFloat64()/lambda
		case t == nextChange:
			timeline.apply()
		}
	}
	return flows, active.Len()
}
