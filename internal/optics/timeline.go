package optics

import (
	"fmt"
	"math/rand"
)

// BERSample is one pre-FEC BER measurement, taken every 10 ms as in the
// paper's testbed (§6.2, Appendix C).
type BERSample struct {
	TimeS  float64 // measurement time, seconds from experiment start
	BER    float64 // pre-FEC bit error rate; meaningful only when Signal
	Signal bool    // false while the receiver is recovering from a switch
}

// ReconfigExperiment reproduces the Fig. 13(b)/Fig. 14 testbed experiment
// in simulation: a sender alternates between two optical path
// configurations (the paper's span combinations A(60-60, 20-10) and
// B(20-60, 60-10)), reconfiguring every IntervalS seconds. Each switch
// blinds the receiver for the measured recovery time; in between, BER
// follows the path OSNR with small measurement noise.
type ReconfigExperiment struct {
	Seed      int64
	DurationS float64   // total experiment duration
	IntervalS float64   // time between reconfigurations (paper: 60 s)
	SampleMS  float64   // BER sampling period (paper: 10 ms)
	PathA     []Element // configuration before each odd switch
	PathB     []Element // configuration after each odd switch
	// RecoveryMS overrides the post-switch signal recovery time;
	// zero means the measured default (ReconfigRecoveryMS).
	RecoveryMS float64
}

// TestbedPaths returns the two path configurations of the paper's
// experiment: four spans of 20, 60, 60 and 10 km across one intermediate
// hut, with the hut amplifier serving whichever path currently has the
// long span combination. Terminal amplifiers at both DCs are included.
func TestbedPaths() (pathA, pathB []Element) {
	// Configuration A: 60 km + 60 km via the hut (amplified at the hut).
	pathA = []Element{
		{Kind: mux}, {Kind: OSS}, {Kind: Amp},
		{Kind: Span, LengthKM: 60},
		{Kind: OSS}, {Kind: Amp}, // hut: loopback amplifier through the OSS
		{Kind: Span, LengthKM: 60},
		{Kind: OSS}, {Kind: Amp}, {Kind: mux},
	}
	// Configuration B: 20 km + 10 km via the hut (no inline amplification).
	pathB = []Element{
		{Kind: mux}, {Kind: OSS}, {Kind: Amp},
		{Kind: Span, LengthKM: 20},
		{Kind: OSS},
		{Kind: Span, LengthKM: 10},
		{Kind: OSS}, {Kind: Amp}, {Kind: mux},
	}
	return pathA, pathB
}

// Run simulates the experiment and returns the BER samples in time order.
// It returns an error if either path configuration violates the optical
// constraints, since the testbed could not have carried traffic on such a
// path at all.
func (e ReconfigExperiment) Run() ([]BERSample, error) {
	evalA := Evaluate(e.PathA)
	if !evalA.Feasible() {
		return nil, fmt.Errorf("optics: path A infeasible: %v", evalA.Violations)
	}
	evalB := Evaluate(e.PathB)
	if !evalB.Feasible() {
		return nil, fmt.Errorf("optics: path B infeasible: %v", evalB.Violations)
	}
	if e.DurationS <= 0 || e.IntervalS <= 0 || e.SampleMS <= 0 {
		return nil, fmt.Errorf("optics: experiment durations must be positive: %+v", e)
	}
	recovery := e.RecoveryMS
	if recovery == 0 {
		recovery = ReconfigRecoveryMS
	}

	rng := rand.New(rand.NewSource(e.Seed))
	n := int(e.DurationS * 1000 / e.SampleMS)
	samples := make([]BERSample, 0, n)
	step := e.SampleMS / 1000
	for i := 0; i < n; i++ {
		t := float64(i) * step
		// Which configuration is active, and how long since the switch?
		epoch := int(t / e.IntervalS)
		sinceSwitch := t - float64(epoch)*e.IntervalS
		active := evalA
		if epoch%2 == 1 {
			active = evalB
		}
		if epoch > 0 && sinceSwitch*1000 < recovery {
			samples = append(samples, BERSample{TimeS: t, Signal: false})
			continue
		}
		// Small multiplicative measurement noise (±20%), as seen in the
		// testbed traces, around the OSNR-implied BER.
		noise := 1 + 0.2*(2*rng.Float64()-1)
		samples = append(samples, BERSample{
			TimeS:  t,
			BER:    active.PreFECBER * noise,
			Signal: true,
		})
	}
	return samples, nil
}

// MaxBER returns the highest BER across samples that carried signal.
func MaxBER(samples []BERSample) float64 {
	var maxBER float64
	for _, s := range samples {
		if s.Signal && s.BER > maxBER {
			maxBER = s.BER
		}
	}
	return maxBER
}

// OutageMS returns the total signal-loss time across the samples, in
// milliseconds, computed from the sampling period implied by consecutive
// samples.
func OutageMS(samples []BERSample) float64 {
	if len(samples) < 2 {
		return 0
	}
	stepMS := (samples[1].TimeS - samples[0].TimeS) * 1000
	var total float64
	for _, s := range samples {
		if !s.Signal {
			total += stepMS
		}
	}
	return total
}
