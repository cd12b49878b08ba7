// Package flowsim is the flow-level fluid simulator behind §6.3 of the
// paper: it measures how Iris's circuit reconfigurations — brief capacity
// reductions while fibers are switched — affect flow completion times,
// compared to an electrical packet-switched fabric that never reconfigures.
//
// Each DC pair is a pipe (a provisioned circuit). Flows arrive on a pipe
// as a Poisson process with sizes drawn from an empirical workload
// distribution, and share the pipe capacity by processor sharing (the
// fluid equivalent of fair queueing). A reconfiguration removes a fraction
// of a pipe's capacity for its duration; the paper measures 70 ms per
// fiber switch. Because Iris circuits are dedicated fibers, pipes are
// independent and are simulated exactly with a per-pipe event loop
// (loadPipe, in load.go).
package flowsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"iris/internal/traffic"
)

// Pipe is one DC-pair circuit.
type Pipe struct {
	// CapacityGbps is the provisioned circuit rate.
	CapacityGbps float64
	// UtilFrac is the offered load as a fraction of capacity.
	UtilFrac float64
}

// Dip is one reconfiguration-induced capacity reduction on a pipe.
type Dip struct {
	TimeS     float64 // start time
	DurationS float64 // the fiber-switch time (70 ms in the testbed)
	FracLost  float64 // fraction of the pipe capacity drained, in (0,1]
}

// config drives one simulation run.
type config struct {
	Seed      int64
	DurationS float64
	// WarmupS excludes flows arriving before this time from the results,
	// letting queues reach steady state first.
	WarmupS float64
	Dist    traffic.SizeDist
	Pipes   []Pipe
	// Dips maps pipe index to its reconfiguration events. Leave empty for
	// the EPS baseline.
	Dips map[int][]Dip
}

// flow is one completed flow.
type flow struct {
	Pipe      int
	SizeBytes float64
	ArriveS   float64
	FCTSec    float64
}

// result collects a run's completed flows.
type result struct {
	Flows      []flow
	Incomplete int // flows still active at the end of the simulation
}

// fcts returns the completion times of all flows, or of only the short
// flows (< traffic.ShortFlowBytes) when shortOnly is set.
func (r result) fcts(shortOnly bool) []float64 {
	var out []float64
	for _, f := range r.Flows {
		if shortOnly && f.SizeBytes >= traffic.ShortFlowBytes {
			continue
		}
		out = append(out, f.FCTSec)
	}
	return out
}

// validate checks what run and RunLoad both require of a run and returns
// the workload's mean flow size.
func validate(durationS float64, dist traffic.SizeDist, pipes []Pipe) (meanBytes float64, err error) {
	if durationS <= 0 {
		return 0, fmt.Errorf("flowsim: duration must be positive")
	}
	if len(pipes) == 0 {
		return 0, fmt.Errorf("flowsim: no pipes")
	}
	mean := dist.Mean()
	if mean <= 0 || math.IsNaN(mean) {
		return 0, fmt.Errorf("flowsim: workload has invalid mean %v", mean)
	}
	for i, p := range pipes {
		if p.CapacityGbps <= 0 {
			return 0, fmt.Errorf("flowsim: pipe %d has capacity %v", i, p.CapacityGbps)
		}
		if p.UtilFrac < 0 || p.UtilFrac >= 1 {
			return 0, fmt.Errorf("flowsim: pipe %d utilization %v outside [0,1)", i, p.UtilFrac)
		}
	}
	return mean, nil
}

// pipeRNG returns pipe i's random stream: independent of the other pipes'
// but deterministic in the seed.
func pipeRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
}

// run simulates all pipes and returns the pooled completed flows sorted by
// arrival time. It is the load engine's event loop (loadPipe) with every
// counted flow recorded.
func run(cfg config) (result, error) {
	mean, err := validate(cfg.DurationS, cfg.Dist, cfg.Pipes)
	if err != nil {
		return result{}, err
	}
	var res result
	for i, p := range cfg.Pipes {
		st := loadPipe(pipeRNG(cfg.Seed, i), p, cfg.Dips[i], cfg.Dist, mean, 0,
			cfg.DurationS, cfg.WarmupS, nil, func(sizeBytes, arriveS, fctS float64) {
				res.Flows = append(res.Flows, flow{Pipe: i, SizeBytes: sizeBytes, ArriveS: arriveS, FCTSec: fctS})
			})
		res.Incomplete += int(st.Incomplete)
	}
	sort.Slice(res.Flows, func(i, j int) bool {
		if res.Flows[i].ArriveS != res.Flows[j].ArriveS {
			return res.Flows[i].ArriveS < res.Flows[j].ArriveS
		}
		return res.Flows[i].Pipe < res.Flows[j].Pipe
	})
	return res, nil
}

// activeFlow is a flow in service, keyed by the per-flow credit value at
// which it completes.
type activeFlow struct {
	doneAtCredit float64
	sizeBytes    float64
	arriveS      float64
}

type flowHeap []activeFlow

func (h flowHeap) Len() int           { return len(h) }
func (h flowHeap) Less(i, j int) bool { return h[i].doneAtCredit < h[j].doneAtCredit }
func (h flowHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *flowHeap) Push(x any)        { *h = append(*h, x.(activeFlow)) }
func (h *flowHeap) Pop() any          { o := *h; n := len(o); x := o[n-1]; *h = o[:n-1]; return x }

// capChange is a point where the pipe's capacity multiplier changes. A
// dip contributes two events: its start applies the dip's multiplier
// (1-frac) and its end removes that same multiplier from the active set.
// Carrying the multiplier on both events keeps restores correct for
// overlapping non-nested dips, where a LIFO stack would pop the wrong
// dip's multiplier.
type capChange struct {
	timeS   float64
	mult    float64 // this dip's multiplier, 1-frac (0 for a full outage)
	restore bool
}

// capTimeline replays a pipe's piecewise-constant capacity multiplier:
// the product of the multipliers of all dips covering the current time.
type capTimeline struct {
	changes []capChange
	idx     int
	active  []float64 // multipliers of the dips covering the current time
	mult    float64
}

// newCapTimeline builds the sorted event schedule for a dip set. Dips
// with non-positive duration or loss are ignored; FracLost is clamped
// to 1.
func newCapTimeline(dips []Dip) *capTimeline {
	ct := &capTimeline{mult: 1}
	for _, d := range dips {
		if d.FracLost <= 0 || d.DurationS <= 0 {
			continue
		}
		frac := math.Min(d.FracLost, 1)
		ct.changes = append(ct.changes, capChange{timeS: d.TimeS, mult: 1 - frac})
		ct.changes = append(ct.changes, capChange{timeS: d.TimeS + d.DurationS, mult: 1 - frac, restore: true})
	}
	sort.SliceStable(ct.changes, func(i, j int) bool { return ct.changes[i].timeS < ct.changes[j].timeS })
	return ct
}

// next returns the time of the next multiplier change, or +Inf when the
// schedule is exhausted.
func (ct *capTimeline) next() float64 {
	if ct.idx >= len(ct.changes) {
		return math.Inf(1)
	}
	return ct.changes[ct.idx].timeS
}

// apply consumes the pending change and recomputes the multiplier from
// the active set. Recomputing (rather than dividing the old multiplier
// out) keeps full outages (mult 0) exact and accumulates no float drift,
// so no >1 clamp is needed.
func (ct *capTimeline) apply() {
	c := ct.changes[ct.idx]
	ct.idx++
	if c.restore {
		for i, m := range ct.active {
			if m == c.mult {
				ct.active[i] = ct.active[len(ct.active)-1]
				ct.active = ct.active[:len(ct.active)-1]
				break
			}
		}
	} else {
		ct.active = append(ct.active, c.mult)
	}
	ct.mult = 1
	for _, m := range ct.active {
		ct.mult *= m
	}
}
