// Package robust implements METTEOR-style robust topology engineering:
// instead of re-running the allocator on every traffic shift, it solves
// ONE allocation that is admissible for a whole *set* of traffic matrices
// — a recent window of the live feed, change-process forecasts, or any
// explicit collection — trading a bounded amount of capacity
// overprovisioning for reconfiguration churn.
//
// The construction is the per-matrix hose envelope: the element-wise
// maximum of the set's pair demands, inflated by a configurable headroom
// factor, allocated through the existing core planner. Because circuits
// are dedicated per DC pair, an allocation provisioned for the envelope
// covers every matrix the envelope dominates; the solve then verifies each
// matrix independently — per-pair coverage against the provisioned
// wavelengths and per-duct worst-case hose load against the leased fiber,
// by the plan's own provisioning rule (plan.Evaluator.Load; the property
// test rechecks it with hose.WorstCaseLoad) — and iterates, tightening the
// headroom toward 1 and finally clamping the envelope into the hose
// polytope, until all k matrices pass or the iteration budget is
// exhausted.
//
// At high utilisation no single allocation can dominate a volatile set
// (the element-wise max may itself exceed the hose caps); the solve then
// returns the best allocatable envelope with AllAdmissible=false and
// per-matrix Verdicts, so callers degrade explicitly instead of flapping.
//
// Policy is the envelope rule as a core.Policy: it solves over a window
// of recent shifts, absorbs a shift the committed envelope contains, and
// re-plans only when demand escapes it. irisd's -robust mode and the
// robust ablation both drive it.
package robust

import (
	"fmt"
	"math"
	"sort"

	"iris/internal/core"
	"iris/internal/hose"
	"iris/internal/traffic"
)

// Config tunes the envelope rule. The zero value of each field selects
// the default; DefaultConfig shows them.
type Config struct {
	// Window is how many recent matrices Policy solves the envelope over
	// (default 4).
	Window int
	// Headroom inflates the element-wise max envelope before allocation
	// (default 1.15). Must be ≥ 1: headroom below the max could not cover
	// the very matrices the envelope was built from.
	Headroom float64
	// Forecast appends this many change-process steps beyond the newest
	// matrix to Policy's envelope set (0 adds none). CP is the process
	// they are rolled with (it should match the live feed's), and the
	// branch of shift step is seeded Seed+step, so forecasting never
	// perturbs the feed and successive re-plans draw fresh noise.
	Forecast int
	CP       traffic.ChangeProcess
	Seed     int64
}

// DefaultConfig returns the envelope rule's defaults: a window of 4
// matrices, 15% headroom, no forecast.
func DefaultConfig() Config {
	return Config{Window: 4, Headroom: 1.15}
}

// The envelope iteration's fixed knobs: on an infeasible envelope the
// excess headroom h-1 is multiplied by shrink, walking h toward 1, for at
// most budget solve-verify rounds.
const (
	shrink = 0.5
	budget = 8
)

// Envelope is the demand the committed allocation was provisioned for:
// the inflated (and possibly hose-clamped) element-wise maximum over the
// matrix set. A live matrix inside the envelope needs no reconfiguration.
type Envelope struct {
	// Headroom is the inflation factor the envelope was allocated at.
	Headroom float64
	// Matrices is the size of the set the envelope was built from.
	Matrices int
	// Clamped records that the inflated max exceeded the hose caps and
	// was scaled back into the polytope before allocation.
	Clamped bool
	// Demand is the envelope's per-pair demand in wavelengths (canonical
	// pairs, zero entries omitted) — exactly the matrix that was
	// allocated.
	Demand map[hose.Pair]float64
	// Total is the envelope's total demand in wavelengths.
	Total float64
}

// Escape is one pair whose live demand left the envelope.
type Escape struct {
	Pair   hose.Pair `json:"pair"`
	Demand float64   `json:"demand"`
	Limit  float64   `json:"limit"`
}

// containsEps absorbs float noise from the change process's clamping;
// an escape below a millionth of a wavelength is not worth a drain.
const containsEps = 1e-6

// Contains reports whether every pair demand of m fits the envelope — the
// daemon's skip condition.
func (e *Envelope) Contains(m *traffic.Matrix) bool {
	for p, dm := range m.Demand {
		if dm > e.Demand[p.Canonical()]+containsEps {
			return false
		}
	}
	return true
}

// Escapes lists the pairs of m outside the envelope, worst excess first.
func (e *Envelope) Escapes(m *traffic.Matrix) []Escape {
	var out []Escape
	for p, dm := range m.Demand {
		if limit := e.Demand[p.Canonical()]; dm > limit+containsEps {
			out = append(out, Escape{Pair: p.Canonical(), Demand: dm, Limit: limit})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i].Demand-out[i].Limit, out[j].Demand-out[j].Limit
		if di != dj {
			return di > dj
		}
		return out[i].Pair.Less(out[j].Pair)
	})
	return out
}

// Utilization is the worst per-pair ratio of m's demand to the envelope
// (1 at the boundary, >1 once escaped, 0 for an empty matrix). A pair
// with demand but no envelope capacity yields +Inf.
func (e *Envelope) Utilization(m *traffic.Matrix) float64 {
	worst := 0.0
	for p, dm := range m.Demand {
		if dm <= 0 {
			continue
		}
		limit := e.Demand[p.Canonical()]
		if limit <= 0 {
			return math.Inf(1)
		}
		if r := dm / limit; r > worst {
			worst = r
		}
	}
	return worst
}

// maxEnvelope returns the element-wise maximum of the matrices' pair
// demands (canonical pairs) — the raw, uninflated envelope.
func maxEnvelope(ms []*traffic.Matrix) map[hose.Pair]float64 {
	raw := make(map[hose.Pair]float64)
	for _, m := range ms {
		for p, dm := range m.Demand {
			if c := p.Canonical(); dm > raw[c] {
				raw[c] = dm
			}
		}
	}
	return raw
}

// Overload is one duct whose leased fiber cannot carry what a matrix's
// worst-case hose load requires of it.
type Overload struct {
	Duct int `json:"duct"`
	// Need is the fiber-pairs the matrix's hose worst case requires.
	Need int `json:"need"`
	// Have is the fiber-pairs the plan leased there.
	Have int `json:"have"`
}

// Verdict is one matrix's admissibility under a fixed allocation.
type Verdict struct {
	// Index is the matrix's position in the solved set.
	Index int `json:"index"`
	// Admissible: every pair's demand fits its provisioned wavelengths
	// and every duct's worst-case hose load fits the leased fiber.
	Admissible bool `json:"admissible"`
	// Uncovered lists pairs whose demand exceeds the provisioned
	// wavelengths (the dominance check the envelope construction makes
	// automatic unless clamping cut below the matrix).
	Uncovered []hose.Pair `json:"uncovered,omitempty"`
	// Overloads are ducts failing the hose capacity check;
	// ResidualOverloads are ducts with more pair crossings than residual
	// fibers provisioned.
	Overloads         []Overload `json:"overloads,omitempty"`
	ResidualOverloads []Overload `json:"residual_overloads,omitempty"`
}

// Result is one robust solve: the envelope, the allocation provisioned
// for it, and the per-matrix admissibility evidence.
type Result struct {
	Envelope *Envelope
	// State is the allocator's books for the envelope; Alloc is the
	// immutable committed snapshot of the same allocation.
	State *core.AllocState
	Alloc core.Allocation
	// Headroom is the factor the final iteration allocated at;
	// Iterations counts solve-verify rounds consumed.
	Headroom   float64
	Iterations int
	// Verdicts holds one admissibility verdict per input matrix;
	// AllAdmissible is their conjunction.
	Verdicts      []Verdict
	AllAdmissible bool
	// ProvisionedWavelengths totals the allocation's capacity
	// (fibers·λ + residual summed over pairs); Overprovision is that
	// capacity over the matrices' mean total demand — the METTEOR cost
	// of robustness.
	ProvisionedWavelengths float64
	Overprovision          float64
}

// solve computes one allocation admissible for all matrices in ms: build
// the element-wise max envelope inflated by headroom h, allocate it through
// the core planner, verify every matrix, and iterate — tightening the
// headroom toward 1 while the envelope exceeds the region's hose caps,
// then clamping it into the polytope — until all matrices pass or the
// budget is exhausted. When domination is infeasible at the region's
// utilisation the best allocatable envelope is returned with
// AllAdmissible=false; the error path is reserved for envelopes the
// planner rejects outright even clamped.
func solve(dep *core.Deployment, ms []*traffic.Matrix, h float64) (*Result, error) {
	if dep == nil {
		return nil, fmt.Errorf("robust: nil deployment")
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("robust: empty matrix set")
	}
	if h < 1 {
		return nil, fmt.Errorf("robust: headroom %.3f < 1", h)
	}

	raw := maxEnvelope(ms)
	dcs := dep.Region.Map.DCs()
	capsW := dep.Region.HoseCaps()
	meanTotal := 0.0
	for _, m := range ms {
		meanTotal += m.Total()
	}
	meanTotal /= float64(len(ms))

	// Hose feasibility is linear in the headroom (aggregate·h ≤ cap per
	// DC), so the largest allocatable inflation is known up front: start
	// at min(Headroom, hFeas) instead of burning budget shrinking toward
	// it, and when even the raw max exceeds some hose cap (hFeas < 1) no
	// dominating envelope exists — clamp into the polytope from the start
	// and let the verdicts report what the clamp cut.
	rawM := traffic.NewMatrix(dcs)
	for p, dm := range raw {
		rawM.Set(p, dm)
	}
	hFeas := math.Inf(1)
	for dc, agg := range rawM.PerDC() { // summed in pair order: the same bits every run
		if agg > 0 && capsW[dc] > 0 {
			if f := capsW[dc] / agg; f < hFeas {
				hFeas = f
			}
		}
	}
	clamped := false
	if hFeas < 1 {
		clamped = true
	} else if h > hFeas {
		h = hFeas
	}
	// tighten walks the remaining knobs: shrink the headroom toward 1,
	// then clamp the envelope into the hose polytope. False means both
	// are spent.
	tighten := func() bool {
		if h > 1+1e-9 {
			h = 1 + (h-1)*shrink
			if h <= 1+1e-6 {
				h = 1
			}
			return true
		}
		if !clamped {
			clamped = true
			return true
		}
		return false
	}

	var best *Result
	var lastErr error
	for iter := 1; iter <= budget; iter++ {
		em := traffic.NewMatrix(dcs)
		for p, dm := range raw {
			em.Set(p, dm*h)
		}
		if clamped {
			em.ClampToHose(capsW)
		}
		st, err := dep.AllocateState(em)
		if err != nil {
			lastErr = err
			if tighten() {
				continue
			}
			return nil, fmt.Errorf("robust: envelope unallocatable even clamped at headroom %.3f: %w", h, err)
		}
		alloc := st.Snapshot()
		res := &Result{
			Envelope:   newEnvelope(em, h, len(ms), clamped),
			State:      st,
			Alloc:      alloc,
			Headroom:   h,
			Iterations: iter,
			Verdicts:   verify(dep, alloc, ms),
		}
		res.AllAdmissible = true
		for _, v := range res.Verdicts {
			res.AllAdmissible = res.AllAdmissible && v.Admissible
		}
		res.ProvisionedWavelengths = provisioned(alloc, dep.Region.Lambda)
		if meanTotal > 0 {
			res.Overprovision = res.ProvisionedWavelengths / meanTotal
		}
		if res.AllAdmissible {
			return res, nil
		}
		best = res
		// A failed verdict means the clamp (or a too-small envelope) cut
		// below some matrix; a tighter headroom leaves the clamp less
		// inflation to scale away, so keep walking the knobs.
		if !tighten() {
			break
		}
	}
	if best != nil {
		return best, nil
	}
	return nil, fmt.Errorf("robust: no allocatable envelope within budget %d: %w", budget, lastErr)
}

func newEnvelope(em *traffic.Matrix, h float64, k int, clamped bool) *Envelope {
	e := &Envelope{
		Headroom: h,
		Matrices: k,
		Clamped:  clamped,
		Demand:   make(map[hose.Pair]float64, len(em.Demand)),
	}
	for p, dm := range em.Demand {
		if dm > 0 {
			e.Demand[p.Canonical()] = dm
			e.Total += dm
		}
	}
	return e
}

// provisioned totals an allocation's capacity in wavelengths:
// fibers·λ + residual summed over pairs.
func provisioned(alloc core.Allocation, lambda int) float64 {
	total := 0.0
	for p, f := range alloc.Fibers {
		total += float64(f*lambda + alloc.Residual[p])
	}
	for p, r := range alloc.Residual {
		if alloc.Fibers[p] == 0 {
			total += float64(r)
		}
	}
	return total
}

// verify checks each matrix's admissibility under a fixed allocation. Two
// independent checks per matrix:
//
//   - coverage: every pair's demand fits the wavelengths the allocation
//     provisions for it (circuits are dedicated per pair, so coverage is
//     exactly per-pair dominance up to the allocator's ceiling);
//   - capacity: the plan's provisioning rule (plan.Evaluator.Load) applied
//     to the failure-free routes of the pairs the matrix loads, with the
//     matrix's own per-DC aggregates as hose caps — per crossed duct the
//     need must fit the base plus cut-through fiber leased there, and the
//     crossings the residual fibers.
//
// The failure-free scenario is routed once per call; each matrix only
// changes the caps and the active pair set.
func verify(dep *core.Deployment, alloc core.Allocation, ms []*traffic.Matrix) []Verdict {
	lambda := dep.Region.Lambda
	ev := dep.Plan.NewEvaluator()
	routed := make([]bool, ev.NumPairs())
	routes := ev.Route()
	for i := range routes {
		routed[i] = routes[i].Routed()
	}
	capsF := make([]float64, len(ev.DCs()))
	active := make([]bool, ev.NumPairs())

	out := make([]Verdict, len(ms))
	for i, m := range ms {
		v := Verdict{Index: i, Admissible: true}

		// Per-DC aggregates in fiber units: the hose caps this matrix
		// induces for the worst-case load bound.
		perDC := m.PerDC()
		for pos, dc := range ev.DCs() {
			capsF[pos] = perDC[dc] / float64(lambda)
		}

		clear(active)
		for p, dm := range m.Demand {
			if dm <= 0 {
				continue
			}
			c := p.Canonical()
			prov := float64(alloc.FibersFor(c)*lambda + alloc.ResidualFor(c))
			if dm > prov+containsEps {
				v.Uncovered = append(v.Uncovered, c)
				v.Admissible = false
			}
			idx, ok := ev.PairIndex(c)
			if !ok || !routed[idx] {
				v.Uncovered = append(v.Uncovered, c)
				v.Admissible = false
				continue
			}
			active[idx] = true
		}
		hose.SortPairs(v.Uncovered)

		for _, l := range ev.Load(capsF, active) {
			du := dep.Plan.Ducts[l.Duct]
			if du == nil {
				continue
			}
			if have := du.BasePairs + du.CutThroughPairs; l.BasePairs > have {
				v.Overloads = append(v.Overloads, Overload{Duct: l.Duct, Need: l.BasePairs, Have: have})
				v.Admissible = false
			}
			if have := du.ResidualPairs; l.ResidualPairs > have {
				v.ResidualOverloads = append(v.ResidualOverloads, Overload{Duct: l.Duct, Need: l.ResidualPairs, Have: have})
				v.Admissible = false
			}
		}
		out[i] = v
	}
	return out
}
