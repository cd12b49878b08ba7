// Package optics models the physical layer of a regional DCI: fiber spans,
// erbium-doped fiber amplifiers, optical space switches (OSS), optical
// cross-connects (oxc), and 400ZR-class coherent transceivers. It encodes
// the technology constraints TC1–TC4 of §3.2 of the paper and the measured
// component behaviour of §6.2 (Figs. 8, 9 and 14), and is the authority the
// planner consults when validating end-to-end optical paths.
//
// The paper validated these models on a hardware testbed; this package is
// the simulator substitute. Every constant below is taken from the paper's
// published numbers, so constraint checks exercise the same decision logic
// as the testbed did.
package optics

import (
	"fmt"
	"math"
)

// Published physical-layer constants (Fig. 8, §3.2).
const (
	// fiberLossDBPerKM is the typical regional fiber attenuation.
	fiberLossDBPerKM = 0.25
	// AmpGainDB is the fixed gain of every amplifier. Iris operates all
	// amplifiers at fixed gain with input power limiters (§5.1), so gain
	// never needs online adjustment.
	AmpGainDB = 20.0
	// ampNoiseFigureDB is the OSNR penalty added by the first amplifier on
	// a path (measured in Fig. 9).
	ampNoiseFigureDB = 4.5
	// ossLossDB is the insertion loss of one optical space switch traversal.
	ossLossDB = 1.5
	// oxcLossDB is the insertion loss of an optical cross-connect
	// (wavelength-granularity switching element).
	oxcLossDB = 9.0
	// MaxSpanKM is the longest unamplified point-to-point fiber run (TC1):
	// the 20 dB receive-amplifier gain divided by the fiber loss.
	MaxSpanKM = AmpGainDB / fiberLossDBPerKM // 80 km
	// MaxPathKM is the SLA-derived maximum DC-DC fiber distance (OC1).
	MaxPathKM = 120.0
	// maxAmpsPerPath is the end-to-end amplifier budget (TC2): a 9 dB OSNR
	// penalty budget permits at most 3 cascaded amplifiers.
	maxAmpsPerPath = 3
	// OSNRPenaltyBudgetDB is the tolerable cascaded-amplifier OSNR penalty
	// after reserving margin for transmission impairments (§3.2).
	OSNRPenaltyBudgetDB = 9.0
	// reconfigLossBudgetDB is the optical power budget available for
	// reconfiguration elements on a max-distance path (TC4): at most one
	// oxc or six OSS traversals.
	reconfigLossBudgetDB = 10.0
	// MaxOSSPerPath is reconfigLossBudgetDB / ossLossDB rounded down.
	MaxOSSPerPath = 6
)

// 400ZR transceiver characteristics (Fig. 8, §3.2, §6.2).
const (
	// SoftFECBERThreshold is the pre-FEC bit error rate above which the
	// soft-decision FEC can no longer deliver error-free output.
	SoftFECBERThreshold = 2e-2
	// requiredOSNRDB is the receiver OSNR at the FEC threshold.
	requiredOSNRDB = 26.0
	// backToBackOSNRDB is the OSNR of an unamplified, loss-compensated
	// link; cascaded amplifiers subtract OSNRPenaltyDB from it.
	backToBackOSNRDB = 37.0
	// ReconfigRecoveryMS is the measured time for a receiver to recover
	// the signal after a fiber switch (§6.2: 50 ms on one hut, up to
	// 70 ms across two huts).
	ReconfigRecoveryMS = 50.0
	// OSSSwitchTimeMS is the switching time of the optical space switch,
	// the slowest element in a reconfiguration (§5.2).
	OSSSwitchTimeMS = 20.0
)

// OSNRPenaltyDB returns the OSNR penalty of n cascaded amplifiers: the
// first adds the amplifier noise figure and each doubling thereafter adds
// 3 dB, matching the Fig. 9 measurement and the cascaded-EDFA theory the
// paper cites.
func OSNRPenaltyDB(n int) float64 {
	if n <= 0 {
		return 0
	}
	return ampNoiseFigureDB + 3*math.Log2(float64(n))
}

// MaxAmpsWithinPenalty returns the largest amplifier cascade whose OSNR
// penalty fits the given budget. With the paper's 9 dB budget this is 3.
//
// The paper reads the count off the measured Fig. 9 curve, where the
// 3-amplifier penalty sits at ≈9 dB; the analytic doubling model gives
// 9.26 dB, so a 0.5 dB reading tolerance is applied to match the published
// constraint (§3.2: "a maximum amplifier-count of 3 end-to-end").
func MaxAmpsWithinPenalty(budgetDB float64) int {
	const readingToleranceDB = 0.5
	n := 0
	for OSNRPenaltyDB(n+1) <= budgetDB+readingToleranceDB {
		n++
	}
	return n
}

// preFECBER maps received OSNR to the pre-FEC bit error rate of a
// dual-polarization 16-QAM coherent receiver. The mapping is anchored at
// the FEC threshold (requiredOSNRDB → SoftFECBERThreshold) and follows the
// steep waterfall slope characteristic of coherent 16-QAM: roughly one
// decade of BER per 3.5 dB of OSNR. It saturates at 0.5 for hopeless links.
func preFECBER(osnrDB float64) float64 {
	margin := osnrDB - requiredOSNRDB
	ber := SoftFECBERThreshold * math.Pow(10, -margin/3.5)
	if ber > 0.5 {
		return 0.5
	}
	return ber
}

// ElementKind identifies a component on an optical path.
type ElementKind int

const (
	// Span is a run of fiber of a given length.
	Span ElementKind = iota
	// Amp is an EDFA operated at fixed gain behind a power limiter.
	Amp
	// OSS is one traversal of an optical space switch.
	OSS
	// oxc is one traversal of a wavelength-granularity cross-connect.
	oxc
	// mux is a WSS multiplexer or demultiplexer traversal.
	mux
)

// String implements fmt.Stringer.
func (k ElementKind) String() string {
	switch k {
	case Span:
		return "span"
	case Amp:
		return "amp"
	case OSS:
		return "oss"
	case oxc:
		return "oxc"
	case mux:
		return "mux"
	}
	return fmt.Sprintf("ElementKind(%d)", int(k))
}

// muxLossDB is the insertion loss of one WSS mux or demux traversal.
const muxLossDB = 6.0

// Element is one component on an end-to-end optical path, in order from
// the sending DC to the receiving DC.
type Element struct {
	Kind ElementKind
	// LengthKM is the fiber length; meaningful only for Span elements.
	LengthKM float64
}

// lossDB returns the optical power loss of the element. Amplifiers have
// zero loss here; their gain is accounted for in segment evaluation.
func (e Element) lossDB() float64 {
	switch e.Kind {
	case Span:
		return e.LengthKM * fiberLossDBPerKM
	case Amp:
		return 0
	case OSS:
		return ossLossDB
	case oxc:
		return oxcLossDB
	case mux:
		return muxLossDB
	}
	panic(fmt.Sprintf("optics: unknown element kind %d", int(e.Kind)))
}

// violationKind classifies a constraint violation found on a path.
type violationKind int

const (
	// tooLong: the path exceeds the SLA fiber distance (OC1).
	tooLong violationKind = iota
	// segmentLoss: an amplifier-to-amplifier segment loses more power than
	// one amplifier can restore (TC1).
	segmentLoss
	// tooManyAmps: the amplifier cascade exceeds the OSNR budget (TC2).
	tooManyAmps
	// reconfigLoss: switching elements exceed the reconfiguration power
	// budget (TC4).
	reconfigLoss
)

// String implements fmt.Stringer.
func (k violationKind) String() string {
	switch k {
	case tooLong:
		return "path too long (OC1)"
	case segmentLoss:
		return "segment loss exceeds amplifier gain (TC1)"
	case tooManyAmps:
		return "amplifier cascade exceeds OSNR budget (TC2)"
	case reconfigLoss:
		return "reconfiguration elements exceed power budget (TC4)"
	}
	return fmt.Sprintf("ViolationKind(%d)", int(k))
}

// violation is one constraint breach found by Evaluate.
type violation struct {
	Kind   violationKind
	Detail string
}

// Error renders the violation as text. Violation intentionally does not
// implement the error interface: a path with violations is an analysis
// result, not a failure of the evaluation itself.
func (v violation) String() string {
	return fmt.Sprintf("%s: %s", v.Kind, v.Detail)
}

// PathEval is the result of evaluating an end-to-end optical path.
type PathEval struct {
	TotalKM       float64
	Amps          int
	InlineAmps    int
	OSSCount      int
	OXCCount      int
	OSNRPenaltyDB float64 // cascaded-amplifier penalty
	ReconfigDB    float64 // loss attributable to OSS/oxc elements
	WorstSegDB    float64 // highest single-segment loss
	RxOSNRDB      float64 // OSNR at the receiver
	PreFECBER     float64 // implied pre-FEC bit error rate
	Violations    []violation
}

// Feasible reports whether the path satisfies all constraints.
func (p PathEval) Feasible() bool { return len(p.Violations) == 0 }

// Evaluate checks an ordered element chain against the DCI constraints.
// The chain runs sender to receiver; terminal amplifiers at the sending and
// receiving DC must be included as Amp elements (the Iris implementation
// always deploys them, see Fig. 11).
//
// Segments are the stretches between consecutive amplifiers (or a path end
// and the nearest amplifier); following the paper's budget arithmetic, a
// segment's fiber loss must not exceed one amplifier's gain (TC1: 80 km at
// 0.25 dB/km against 20 dB), while switching-element losses are covered by
// the separate 10 dB reconfiguration budget (TC4: at most six OSS or one
// oxc) and mux losses by the link margins of Fig. 8.
func Evaluate(elems []Element) PathEval {
	var ev PathEval
	segLoss := 0.0
	flushSeg := func() {
		if segLoss > ev.WorstSegDB {
			ev.WorstSegDB = segLoss
		}
		segLoss = 0
	}
	for _, e := range elems {
		switch e.Kind {
		case Amp:
			flushSeg()
			ev.Amps++
		case OSS:
			ev.OSSCount++
			ev.ReconfigDB += ossLossDB
		case oxc:
			ev.OXCCount++
			ev.ReconfigDB += oxcLossDB
		case Span:
			ev.TotalKM += e.LengthKM
			segLoss += e.lossDB()
		}
	}
	flushSeg()

	// Inline amplifiers are those with spans on both sides; with terminal
	// amps included, that is every amp beyond the first and last.
	if ev.Amps > 2 {
		ev.InlineAmps = ev.Amps - 2
	}

	ev.OSNRPenaltyDB = OSNRPenaltyDB(ev.Amps)
	ev.RxOSNRDB = backToBackOSNRDB - ev.OSNRPenaltyDB
	ev.PreFECBER = preFECBER(ev.RxOSNRDB)

	if ev.TotalKM > MaxPathKM+1e-9 {
		ev.Violations = append(ev.Violations, violation{tooLong,
			fmt.Sprintf("%.1f km > %.0f km", ev.TotalKM, MaxPathKM)})
	}
	if ev.WorstSegDB > AmpGainDB+1e-9 {
		ev.Violations = append(ev.Violations, violation{segmentLoss,
			fmt.Sprintf("%.2f dB > %.0f dB gain", ev.WorstSegDB, AmpGainDB)})
	}
	if ev.Amps > maxAmpsPerPath {
		ev.Violations = append(ev.Violations, violation{tooManyAmps,
			fmt.Sprintf("%d amps > %d (penalty %.1f dB > %.0f dB)",
				ev.Amps, maxAmpsPerPath, ev.OSNRPenaltyDB, OSNRPenaltyBudgetDB)})
	}
	if ev.ReconfigDB > reconfigLossBudgetDB+1e-9 {
		ev.Violations = append(ev.Violations, violation{reconfigLoss,
			fmt.Sprintf("%.1f dB > %.0f dB", ev.ReconfigDB, reconfigLossBudgetDB)})
	}
	return ev
}
