package control

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestMalformedRequestGetsErrorResponse sends raw garbage to an agent and
// expects a structured error rather than a dropped connection. The bytes
// go down a pipe from the testbed's own dialer, so the server under test
// is the one every controller talks to.
func TestMalformedRequestGetsErrorResponse(t *testing.T) {
	tb := &Testbed{}
	defer tb.Close() // waits for the pipe's server, which ends with conn
	conn := tb.dialer(NewOSS(4, 0))()
	defer conn.Close()
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		t.Fatal("no response to malformed request")
	}
	var resp wireResponse
	if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	if resp.OK || resp.Error == "" {
		t.Errorf("expected error response, got %+v", resp)
	}

	// The connection must still work afterwards.
	req, _ := json.Marshal(wireRequest{ID: 7, Op: "ping"})
	if _, err := conn.Write(append(req, '\n')); err != nil {
		t.Fatal(err)
	}
	if !sc.Scan() {
		t.Fatal("connection dead after malformed request")
	}
	json.Unmarshal(sc.Bytes(), &resp)
	if !resp.OK || resp.ID != 7 {
		t.Errorf("ping after garbage = %+v", resp)
	}
}

// TestEmptyOpRejected exercises the protocol-level guard.
func TestEmptyOpRejected(t *testing.T) {
	tb, err := StartTestbed(map[string]Device{"oss": NewOSS(4, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if _, err := call(tb.Controller, "oss", "", nil); err == nil {
		t.Error("empty op should be rejected")
	}
}

// TestDeadDeviceSurfacesError kills an agent mid-session and verifies
// the controller reports the failure instead of hanging: every call to
// the dead device fails at once with a DeviceError naming it. The call
// after the kill fails on the connection the agent dropped; each later
// one dials afresh, and the dial hands back a pipe whose agent end is
// already closed.
func TestDeadDeviceSurfacesError(t *testing.T) {
	var dials atomic.Int32
	var live *pipeEnd // the agent end of the first connection
	served := make(chan struct{})
	ctl := newController(map[string]func() *pipeEnd{"oss": func() *pipeEnd {
		conn, agent := newPipe()
		if dials.Add(1) > 1 {
			agent.Close() // the agent is dead
			return conn
		}
		live = agent
		go func() {
			defer close(served)
			serveConn(agent, NewOSS(4, 0))
		}()
		return conn
	}}, DialOptions{})
	defer ctl.shutdown()
	if _, err := call(ctl, "oss", "ping", nil); err != nil {
		t.Fatal(err)
	}

	// Kill the agent.
	live.Close()
	<-served

	for i := 1; i <= 3; i++ {
		errCh := make(chan error, 1)
		go func() {
			_, err := call(ctl, "oss", "ping", nil)
			errCh <- err
		}()
		select {
		case err := <-errCh:
			var de *DeviceError
			if !errors.As(err, &de) || de.Device != "oss" {
				t.Errorf("call %d to the dead device = %v, want a DeviceError for oss", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d to the dead device hung", i)
		}
		if n := dials.Load(); n != int32(i) {
			t.Errorf("%d dials after call %d to the dead device, want %d: one fresh dial a call after the first", n, i, i)
		}
	}
}

// TestReconfigureFailsCleanlyOnDeadDevice verifies the phase machine
// aborts with a phase-tagged error when a change names a device the
// controller does not have.
func TestReconfigureFailsCleanlyOnDeadDevice(t *testing.T) {
	tb, err := StartTestbed(map[string]Device{
		"oss":  NewOSS(8, 0),
		"xcvr": NewTransceiverBank(2, 40),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	_, err = tb.Controller.Reconfigure(context.Background(), Change{
		Switches: []OSSOp{{Device: "ghost", In: 0, Out: 1}},
	})
	if err == nil || !strings.Contains(err.Error(), "switch phase") {
		t.Errorf("err = %v, want switch-phase failure", err)
	}
}

// TestOversizedRequestLine ensures very long (but under-limit) lines
// round-trip both ways: retuning every transceiver of a 10 000-transceiver
// bank to a wavelength of up to 13 digits is a request line of ≈190 KB,
// and its state reply ≈110 KB, both past a scanner's initial 64 KiB
// buffer; the scanner grows to maxLine.
func TestOversizedRequestLine(t *testing.T) {
	const n, lambda = 10000, 1 << 40
	bank := NewTransceiverBank(n, lambda)
	tb, err := StartTestbed(map[string]Device{"bank": bank})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	idxs, ws := make([]int, n), make([]int, n)
	for i := range idxs {
		idxs[i], ws[i] = i, lambda-1-i
	}
	args := map[string]any{"idxs": idxs, "wavelengths": ws, "state": true}
	if line, err := appendRequest(nil, &wireRequest{ID: 1, Op: "tune-batch", Args: args}); err != nil || len(line) < 64<<10 {
		t.Fatalf("request line of %d bytes (%v), want one past the scanner's initial buffer", len(line), err)
	}
	st, err := call(tb.Controller, "bank", "tune-batch", args)
	if err != nil {
		t.Fatalf("large tune-batch failed: %v", err)
	}
	if tuned, _ := bankOf(t, bank); !slices.Equal(tuned, ws) {
		t.Error("the bank holds other wavelengths than the batch set")
	}
	if err := (Expected{Tuned: map[string][]int{"bank": ws}}).Check("bank", st); err != nil {
		t.Errorf("state reply: %v", err)
	}
}

// TestParallelReconfigurationsAreSerializable: two concurrent controller
// changes touching disjoint ports both complete and the union state is
// consistent.
func TestParallelReconfigurationsAreSerializable(t *testing.T) {
	tb, err := StartTestbed(map[string]Device{"oss": NewOSS(32, time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	errs := make(chan error, 2)
	go func() {
		_, err := tb.Controller.Reconfigure(context.Background(), Change{
			Switches: []OSSOp{{Device: "oss", In: 0, Out: 16}, {Device: "oss", In: 1, Out: 17}},
		})
		errs <- err
	}()
	go func() {
		_, err := tb.Controller.Reconfigure(context.Background(), Change{
			Switches: []OSSOp{{Device: "oss", In: 8, Out: 24}, {Device: "oss", In: 9, Out: 25}},
		})
		errs <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Controller.Audit(Expected{Cross: map[string]map[int]int{
		"oss": {0: 16, 1: 17, 8: 24, 9: 25},
	}}); err != nil {
		t.Error(err)
	}
}
