package optics

import (
	"math"
	"testing"
)

func TestOSNRPenaltyMatchesFig9(t *testing.T) {
	// Fig. 9: first amplifier adds the noise figure (~4.5 dB), each
	// doubling of the cascade adds ~3 dB.
	tests := []struct {
		n    int
		want float64
	}{
		{0, 0},
		{1, 4.5},
		{2, 7.5},
		{4, 10.5},
		{8, 13.5},
	}
	for _, tt := range tests {
		if got := OSNRPenaltyDB(tt.n); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("OSNRPenaltyDB(%d) = %v, want %v", tt.n, got, tt.want)
		}
	}
	// Monotone in between.
	if OSNRPenaltyDB(3) <= OSNRPenaltyDB(2) || OSNRPenaltyDB(3) >= OSNRPenaltyDB(4) {
		t.Error("penalty not monotone at n=3")
	}
}

func TestMaxAmpsWithinPenalty(t *testing.T) {
	// §3.2: a 9 dB budget admits at most 3 amplifiers end-to-end.
	if got := MaxAmpsWithinPenalty(OSNRPenaltyBudgetDB); got != 3 {
		t.Errorf("MaxAmpsWithinPenalty(9) = %d, want 3", got)
	}
	if got := MaxAmpsWithinPenalty(3.9); got != 0 {
		t.Errorf("MaxAmpsWithinPenalty(3.9) = %d, want 0", got)
	}
	if got := MaxAmpsWithinPenalty(4.5); got != 1 {
		t.Errorf("MaxAmpsWithinPenalty(4.5) = %d, want 1", got)
	}
}

func TestDerivedConstants(t *testing.T) {
	if MaxSpanKM != 80 {
		t.Errorf("MaxSpanKM = %v, want 80 (TC1)", MaxSpanKM)
	}
	if MaxOSSPerPath != 6 {
		t.Errorf("MaxOSSPerPath = %v, want 6 (TC4)", MaxOSSPerPath)
	}
	if got := math.Floor(reconfigLossBudgetDB / ossLossDB); got != MaxOSSPerPath {
		t.Errorf("OSS budget inconsistency: floor(%v/%v) = %v", reconfigLossBudgetDB, ossLossDB, got)
	}
	// Exactly one oxc fits the reconfiguration budget, two do not.
	if oxcLossDB > reconfigLossBudgetDB || 2*oxcLossDB <= reconfigLossBudgetDB {
		t.Error("OXC budget should admit exactly one traversal")
	}
}

func TestPreFECBER(t *testing.T) {
	if got := preFECBER(requiredOSNRDB); math.Abs(got-SoftFECBERThreshold) > 1e-12 {
		t.Errorf("BER at required OSNR = %v, want threshold %v", got, SoftFECBERThreshold)
	}
	if preFECBER(requiredOSNRDB+5) >= preFECBER(requiredOSNRDB) {
		t.Error("BER should fall as OSNR rises")
	}
	if got := preFECBER(0); got != 0.5 {
		t.Errorf("hopeless link BER = %v, want saturation at 0.5", got)
	}
}

func TestElementLoss(t *testing.T) {
	tests := []struct {
		e    Element
		want float64
	}{
		{Element{Kind: Span, LengthKM: 80}, 20},
		{Element{Kind: OSS}, ossLossDB},
		{Element{Kind: oxc}, oxcLossDB},
		{Element{Kind: mux}, muxLossDB},
		{Element{Kind: Amp}, 0},
	}
	for _, tt := range tests {
		if got := tt.e.lossDB(); got != tt.want {
			t.Errorf("LossDB(%v) = %v, want %v", tt.e.Kind, got, tt.want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	kinds := map[ElementKind]string{Span: "span", Amp: "amp", OSS: "oss", oxc: "oxc", mux: "mux"}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if ElementKind(42).String() != "ElementKind(42)" {
		t.Error("unknown ElementKind string")
	}
	for _, v := range []violationKind{tooLong, segmentLoss, tooManyAmps, reconfigLoss} {
		if v.String() == "" {
			t.Errorf("empty string for ViolationKind %d", int(v))
		}
	}
	if violationKind(42).String() != "ViolationKind(42)" {
		t.Error("unknown ViolationKind string")
	}
}

func TestEvaluateCleanShortPath(t *testing.T) {
	// 40 km single span with terminal amps: comfortably feasible.
	ev := Evaluate([]Element{
		{Kind: Amp}, {Kind: OSS}, {Kind: Span, LengthKM: 40}, {Kind: OSS}, {Kind: Amp},
	})
	if !ev.Feasible() {
		t.Fatalf("unexpected violations: %v", ev.Violations)
	}
	if ev.TotalKM != 40 || ev.Amps != 2 || ev.OSSCount != 2 {
		t.Errorf("eval = %+v", ev)
	}
	if ev.InlineAmps != 0 {
		t.Errorf("InlineAmps = %d, want 0", ev.InlineAmps)
	}
	if ev.PreFECBER > SoftFECBERThreshold {
		t.Errorf("BER %v above FEC threshold on a clean path", ev.PreFECBER)
	}
}

func TestEvaluateMaxDistanceWithInlineAmp(t *testing.T) {
	// 120 km split 60+60 with one inline amp: the paper's worst case.
	ev := Evaluate([]Element{
		{Kind: Amp}, {Kind: OSS},
		{Kind: Span, LengthKM: 60},
		{Kind: OSS}, {Kind: Amp},
		{Kind: Span, LengthKM: 60},
		{Kind: OSS}, {Kind: Amp},
	})
	if !ev.Feasible() {
		t.Fatalf("unexpected violations: %v", ev.Violations)
	}
	if ev.Amps != 3 || ev.InlineAmps != 1 {
		t.Errorf("amps = %d inline = %d", ev.Amps, ev.InlineAmps)
	}
}

func TestEvaluateViolations(t *testing.T) {
	hasViolation := func(ev PathEval, k violationKind) bool {
		for _, v := range ev.Violations {
			if v.Kind == k {
				return true
			}
		}
		return false
	}

	t.Run("too long", func(t *testing.T) {
		ev := Evaluate([]Element{
			{Kind: Amp}, {Kind: Span, LengthKM: 70}, {Kind: Amp},
			{Kind: Span, LengthKM: 70}, {Kind: Amp},
		})
		if !hasViolation(ev, tooLong) {
			t.Errorf("expected TooLong, got %v", ev.Violations)
		}
	})

	t.Run("segment loss", func(t *testing.T) {
		// A 90 km unamplified span exceeds the 20 dB amplifier gain.
		ev := Evaluate([]Element{
			{Kind: Amp}, {Kind: Span, LengthKM: 90}, {Kind: Amp},
		})
		if !hasViolation(ev, segmentLoss) {
			t.Errorf("expected SegmentLoss, got %v", ev.Violations)
		}
	})

	t.Run("switch losses do not count against segments", func(t *testing.T) {
		// TC1 is a fiber-loss constraint; OSS losses live in the TC4
		// budget. 78 km of fiber plus an OSS remains TC1-clean.
		ev := Evaluate([]Element{
			{Kind: Amp}, {Kind: Span, LengthKM: 78}, {Kind: OSS}, {Kind: Amp},
		})
		if hasViolation(ev, segmentLoss) {
			t.Errorf("unexpected SegmentLoss: %v", ev.Violations)
		}
	})

	t.Run("bypassed switch merges spans into one segment", func(t *testing.T) {
		// Without an amplifier between them, two 60 km spans form one
		// 120 km segment and violate TC1 even though each span fits.
		ev := Evaluate([]Element{
			{Kind: Amp}, {Kind: Span, LengthKM: 60}, {Kind: OSS},
			{Kind: Span, LengthKM: 60}, {Kind: Amp},
		})
		if !hasViolation(ev, segmentLoss) {
			t.Errorf("expected SegmentLoss, got %v", ev.Violations)
		}
	})

	t.Run("too many amps", func(t *testing.T) {
		elems := []Element{{Kind: Amp}}
		for i := 0; i < 3; i++ {
			elems = append(elems, Element{Kind: Span, LengthKM: 20}, Element{Kind: Amp})
		}
		ev := Evaluate(elems)
		if !hasViolation(ev, tooManyAmps) {
			t.Errorf("expected TooManyAmps with 4 amps, got %v", ev.Violations)
		}
	})

	t.Run("reconfig budget", func(t *testing.T) {
		elems := []Element{{Kind: Amp}}
		for i := 0; i < 7; i++ {
			elems = append(elems, Element{Kind: OSS})
		}
		elems = append(elems, Element{Kind: Span, LengthKM: 10}, Element{Kind: Amp})
		ev := Evaluate(elems)
		if !hasViolation(ev, reconfigLoss) {
			t.Errorf("expected ReconfigLoss with 7 OSS, got %v", ev.Violations)
		}
	})

	t.Run("six OSS are fine", func(t *testing.T) {
		elems := []Element{{Kind: Amp}}
		for i := 0; i < 6; i++ {
			elems = append(elems, Element{Kind: OSS})
		}
		elems = append(elems, Element{Kind: Span, LengthKM: 10}, Element{Kind: Amp})
		ev := Evaluate(elems)
		if !ev.Feasible() {
			t.Errorf("6 OSS should fit the budget: %v", ev.Violations)
		}
	})

	t.Run("one OXC fine two not", func(t *testing.T) {
		one := Evaluate([]Element{{Kind: Amp}, {Kind: oxc}, {Kind: Span, LengthKM: 10}, {Kind: Amp}})
		if !one.Feasible() {
			t.Errorf("one OXC should be feasible: %v", one.Violations)
		}
		two := Evaluate([]Element{{Kind: Amp}, {Kind: oxc}, {Kind: oxc}, {Kind: Span, LengthKM: 10}, {Kind: Amp}})
		if !hasViolation(two, reconfigLoss) {
			t.Errorf("two OXC should violate TC4: %v", two.Violations)
		}
	})
}

func TestEvaluateWorstSegment(t *testing.T) {
	ev := Evaluate([]Element{
		{Kind: Amp}, {Kind: Span, LengthKM: 40}, {Kind: Amp}, {Kind: Span, LengthKM: 60}, {Kind: Amp},
	})
	if want := 60 * fiberLossDBPerKM; math.Abs(ev.WorstSegDB-want) > 1e-9 {
		t.Errorf("WorstSegDB = %v, want %v", ev.WorstSegDB, want)
	}
}
