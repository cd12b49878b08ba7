package chaos

import (
	"errors"
	"testing"

	"iris/internal/control"
)

func TestDeviceSetFaulting(t *testing.T) {
	s := NewDeviceSet()
	dev := s.Wrap("h1-oss", control.NewOSS(4, 0))
	s.Wrap("dc1-xcvr", control.NewTransceiverBank(2, 4))

	if _, err := dev.Handle("state", nil); err != nil {
		t.Fatalf("healthy device failed: %v", err)
	}

	// Overlapping faults are reference-counted: the device heals only when
	// the last fault is removed.
	s.addFault("h1-oss")
	s.addFault("h1-oss")
	if _, err := dev.Handle("state", nil); !errors.Is(err, errInjected) {
		t.Fatalf("faulted device returned %v, want ErrInjected", err)
	}
	s.removeFault("h1-oss")
	if _, err := dev.Handle("state", nil); !errors.Is(err, errInjected) {
		t.Fatal("device healed while a second fault was still active")
	}
	s.removeFault("h1-oss")
	if _, err := dev.Handle("state", nil); err != nil {
		t.Fatalf("device still failing after all faults removed: %v", err)
	}

	if !s.has("h1-oss") || s.has("h9-oss") {
		t.Fatal("membership check wrong")
	}
}
