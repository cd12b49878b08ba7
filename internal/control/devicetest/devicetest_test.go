package devicetest

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"iris/internal/control"
)

// TestArmAndTakeBesideHandle: while eight goroutines send requests, the
// hook is armed, replaced and disarmed and the log taken, over and over.
// Every request is logged once with its state flag and answered by the
// hook armed when it arrived or by the wrapped device, and a log Take
// returned is not written by the requests after it. Meant for -race.
func TestArmAndTakeBesideHandle(t *testing.T) {
	dev := Wrap(control.NewOSS(4, 0))
	const workers, each = 8, 300
	var refused, served atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				st, err := dev.Handle("state", map[string]any{"state": i%3 == 0})
				if errors.Is(err, errInjected) {
					refused.Add(1)
				} else if err == nil && st["ports"] == 4 {
					served.Add(1)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	pass := func(op string, args map[string]any, next Next) (map[string]any, error) { return next(op, args) }
	var calls []Call
	for i, running := 0, true; running; i++ {
		select {
		case <-done:
			running = false
		default:
		}
		dev.Arm([]Hook{Fail, nil, pass}[i%3])
		calls = append(calls, dev.Take()...)
	}
	states := 0
	for _, c := range calls {
		if c.State && c.Op == "state" {
			states++
		}
	}
	if want := workers * ((each + 2) / 3); len(calls) != workers*each || states != want {
		t.Errorf("logged %d requests, %d state requests with the state flag; want %d and %d", len(calls), states, workers*each, want)
	}
	if n := refused.Load() + served.Load(); n != workers*each {
		t.Errorf("%d requests refused or served, want all %d", n, workers*each)
	}

	dev.Arm(nil)
	dev.Handle("state", nil)
	taken := dev.Take()
	dev.Handle("state", map[string]any{"state": true})
	if later := dev.Take(); !slices.Equal(taken, []Call{{Op: "state"}}) || !slices.Equal(later, []Call{{Op: "state", State: true}}) {
		t.Errorf("took %v, then %v; want the two requests apart", taken, later)
	}
}
