package control

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
)

// Testbed hosts a set of device agents on loopback TCP listeners and a
// controller connected to all of them — the in-process equivalent of the
// paper's hardware testbed (Fig. 13a). It exists for tests, examples and
// the irisctl demo.
type Testbed struct {
	Controller *Controller
	// Devices gives direct access to the device implementations, e.g. to
	// read their operation logs.
	Devices map[string]Device

	cancel    context.CancelFunc
	listeners []net.Listener
	wg        sync.WaitGroup
}

// StartTestbed serves each named device on its own ephemeral loopback
// listener and dials a controller to all of them, with default transport
// deadlines.
func StartTestbed(devices map[string]Device) (*Testbed, error) {
	return StartTestbedWithOptions(devices, DialOptions{})
}

// StartTestbedWithOptions is StartTestbed with explicit controller
// transport deadlines (tests use short RPC timeouts to exercise hung
// devices quickly).
func StartTestbedWithOptions(devices map[string]Device, opts DialOptions) (*Testbed, error) {
	ctx, cancel := context.WithCancel(context.Background())
	tb := &Testbed{Devices: devices, cancel: cancel}

	names := make([]string, 0, len(devices))
	for name := range devices {
		names = append(names, name)
	}
	sort.Strings(names)

	var specs []deviceSpec
	for _, name := range names {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Close()
			return nil, fmt.Errorf("control: testbed listen: %w", err)
		}
		tb.listeners = append(tb.listeners, l)
		specs = append(specs, deviceSpec{Name: name, Addr: l.Addr().String()})
		dev := devices[name]
		tb.wg.Add(1)
		go func(l net.Listener, dev Device) {
			defer tb.wg.Done()
			// Serve returns nil on listener close; other errors surface
			// through failed controller calls in tests.
			_ = serve(ctx, l, dev)
		}(l, dev)
	}

	ctl, err := dialWithOptions(specs, opts)
	if err != nil {
		tb.Close()
		return nil, err
	}
	tb.Controller = ctl
	return tb, nil
}

// Close shuts down the controller, the listeners, and the serving
// goroutines.
func (tb *Testbed) Close() {
	if tb.Controller != nil {
		tb.Controller.shutdown()
	}
	tb.cancel()
	for _, l := range tb.listeners {
		l.Close()
	}
	tb.wg.Wait()
}
