package traffic

import (
	"math"
	"testing"
)

func TestShapeValidation(t *testing.T) {
	bad := []LoadProfile{
		{DiurnalAmp: 1.0, DiurnalPeriodS: 60},
		{DiurnalAmp: -0.1, DiurnalPeriodS: 60},
		{DiurnalAmp: 0.5}, // amp without period
		{FlashEveryS: -1},
		{FlashEveryS: 10, FlashDurationS: -1},
		{FlashEveryS: 10, FlashDurationS: 1, FlashMult: 0.5},
	}
	for i, p := range bad {
		if _, err := NewShape(1, p, 100); err == nil {
			t.Errorf("profile %d (%+v): expected validation error", i, p)
		}
	}
	if _, err := NewShape(1, LoadProfile{}, 100); err != nil {
		t.Errorf("flat profile rejected: %v", err)
	}
}

func TestShapeFlatProfileIsIdentity(t *testing.T) {
	s, err := NewShape(3, LoadProfile{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0, 1, 17.5, 999} {
		if got := s.Mult(tt); got != 1 {
			t.Errorf("Mult(%v) = %v, want 1", tt, got)
		}
	}
	if s.MaxMult() != 1 {
		t.Errorf("MaxMult = %v, want 1", s.MaxMult())
	}
}

func TestShapeDiurnalSwing(t *testing.T) {
	p := LoadProfile{DiurnalAmp: 0.4, DiurnalPeriodS: 100}
	s, err := NewShape(3, p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Peak at quarter period, trough at three quarters.
	if got := s.Mult(25); math.Abs(got-1.4) > 1e-9 {
		t.Errorf("peak Mult = %v, want 1.4", got)
	}
	if got := s.Mult(75); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("trough Mult = %v, want 0.6", got)
	}
	if got := s.Mult(0); math.Abs(got-1) > 1e-9 {
		t.Errorf("zero-crossing Mult = %v, want 1", got)
	}
	for _, tt := range []float64{0, 10, 42, 317} {
		if s.Mult(tt) > s.MaxMult()+1e-12 {
			t.Errorf("Mult(%v)=%v exceeds MaxMult %v", tt, s.Mult(tt), s.MaxMult())
		}
	}
}

func TestShapeFlashCrowdsDeterministicAndBounded(t *testing.T) {
	p := LoadProfile{FlashEveryS: 30, FlashDurationS: 5, FlashMult: 3}
	a, err := NewShape(11, p, 600)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewShape(11, p, 600)
	if a.Flashes() == 0 {
		t.Fatal("no flash windows drawn over 20 mean intervals")
	}
	if a.Flashes() != b.Flashes() {
		t.Fatalf("same seed drew %d vs %d windows", a.Flashes(), b.Flashes())
	}
	// Mult is either the base 1 or exactly FlashMult, never compounded.
	inFlash := 0
	for tt := 0.0; tt < 600; tt += 0.25 {
		m := a.Mult(tt)
		if m != a.Mult(tt) {
			t.Fatal("Mult is not deterministic")
		}
		switch {
		case m == 1:
		case m == 3:
			inFlash++
		default:
			t.Fatalf("Mult(%v) = %v, want 1 or 3 (windows must not stack)", tt, m)
		}
		if m > a.MaxMult() {
			t.Fatalf("Mult(%v)=%v exceeds MaxMult %v", tt, m, a.MaxMult())
		}
	}
	if inFlash == 0 {
		t.Error("sampling never landed inside a flash window")
	}
	if got, want := a.MaxMult(), 3.0; got != want {
		t.Errorf("MaxMult = %v, want %v", got, want)
	}
}
