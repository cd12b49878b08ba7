package control

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// stallableDevice wraps a real device and, while stalled, blocks every
// operation long enough to blow any short RPC deadline.
type stallableDevice struct {
	Device
	mu      sync.Mutex
	stall   time.Duration
	stalled bool
}

func (d *stallableDevice) setStalled(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stalled = on
}

func (d *stallableDevice) Handle(op string, args map[string]any) (map[string]any, error) {
	d.mu.Lock()
	stalled := d.stalled
	d.mu.Unlock()
	if stalled {
		time.Sleep(d.stall)
	}
	return d.Device.Handle(op, args)
}

// TestCallTimesOutOnHungDevice: a device that stops answering must fail
// the call by the RPC deadline instead of wedging the controller forever
// — and once it answers again, the client must transparently reconnect.
func TestCallTimesOutOnHungDevice(t *testing.T) {
	dev := &stallableDevice{Device: NewOSS(4, 0), stall: 2 * time.Second}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(ctx, l, dev)
	}()
	defer func() { cancel(); l.Close(); <-done }()

	cl, err := DialDeviceTimeout(l.Addr().String(), time.Second, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Call("state", nil); err != nil {
		t.Fatalf("healthy call failed: %v", err)
	}

	dev.setStalled(true)
	start := time.Now()
	if _, err := cl.Call("state", nil); err == nil {
		t.Fatal("call to hung device succeeded")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("hung call took %v, want ~50ms deadline", d)
	}

	// Heal the device: the next call redials and succeeds.
	dev.setStalled(false)
	if _, err := cl.Call("state", nil); err != nil {
		t.Errorf("call after heal failed (no reconnect?): %v", err)
	}
}

// TestClosedClientDoesNotRedial: Close is permanent.
func TestClosedClientDoesNotRedial(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(ctx, l, NewOSS(4, 0))
	}()
	defer func() { cancel(); l.Close(); <-done }()

	cl, err := DialDevice(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if _, err := cl.Call("state", nil); err == nil {
		t.Error("call on closed client succeeded")
	}
}

// TestDeviceErrorAttribution: controller call failures carry the device
// name in a DeviceError so supervisors can attribute them.
func TestDeviceErrorAttribution(t *testing.T) {
	tb, err := StartTestbed(map[string]Device{"oss-a": NewOSS(4, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	_, err = tb.Controller.Call("oss-a", "connect-batch", map[string]any{"ins": []int{99}, "outs": []int{0}})
	if err == nil {
		t.Fatal("out-of-range connect succeeded")
	}
	var de *DeviceError
	if !errors.As(err, &de) || de.Device != "oss-a" {
		t.Errorf("err = %v, want DeviceError for oss-a", err)
	}

	// Phase errors from Reconfigure preserve the attribution through
	// wrapping.
	_, err = tb.Controller.Reconfigure(context.Background(), Change{
		Switches: []OSSOp{{Device: "oss-a", In: 99, Out: 0}},
	})
	if !errors.As(err, &de) || de.Device != "oss-a" {
		t.Errorf("reconfigure err = %v, want wrapped DeviceError for oss-a", err)
	}
}
