package control

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"syscall"
)

// Testbed hosts a set of device agents on Unix-domain stream sockets and a
// controller connected to all of them — the in-process equivalent of the
// paper's hardware testbed (Fig. 13a). It exists for tests, examples and
// the daemons, whose devices live and die with them.
//
// Both ends of every RPC run in this process, so a Unix socket carries the
// line protocol for less CPU than loopback TCP, which pays a TCP stack on
// each end. The sockets sit in one private directory (mode 0700), so no
// other local user can connect to a device and send it commands.
type Testbed struct {
	Controller *Controller
	// Devices gives direct access to the devices as served, e.g. to read
	// their operation logs. A device served behind a wrapper (a test's
	// devicetest shim, a chaos fault shim) is the wrapper here.
	Devices map[string]Device

	cancel    context.CancelFunc
	dir       string // holds the sockets; removed by Close
	listeners []net.Listener
	wg        sync.WaitGroup
}

// StartTestbed serves each named device on its own socket and dials a
// controller to all of them, with default transport deadlines.
func StartTestbed(devices map[string]Device) (*Testbed, error) {
	return StartTestbedWithOptions(devices, DialOptions{})
}

// StartTestbedWithOptions is StartTestbed with explicit controller
// transport deadlines (tests use short RPC timeouts to exercise hung
// devices quickly). The sockets are named by the devices' indices in
// sorted name order, in a new directory under os.TempDir.
func StartTestbedWithOptions(devices map[string]Device, opts DialOptions) (*Testbed, error) {
	dir, err := os.MkdirTemp("", "iris-tb-")
	if err != nil {
		return nil, fmt.Errorf("control: testbed: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	tb := &Testbed{Devices: devices, cancel: cancel, dir: dir}

	names := make([]string, 0, len(devices))
	for name := range devices {
		names = append(names, name)
	}
	sort.Strings(names)

	var specs []deviceSpec
	for i, name := range names {
		path := filepath.Join(dir, strconv.Itoa(i))
		l, err := net.Listen("unix", path)
		if err != nil {
			tb.Close()
			// The kernel's own error for an over-long path is EINVAL.
			if limit := len(syscall.RawSockaddrUnix{}.Path); len(path) >= limit {
				err = fmt.Errorf("%w (the path is %d bytes; a socket path must be shorter than sockaddr_un's %d: set a shorter TMPDIR)", err, len(path), limit)
			}
			return nil, fmt.Errorf("control: testbed listen: %w", err)
		}
		tb.listeners = append(tb.listeners, l)
		specs = append(specs, deviceSpec{Name: name, Addr: l.Addr()})
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

// Close shuts down the controller, the listeners and the serving
// goroutines, and removes the sockets' directory.
func (tb *Testbed) Close() {
	if tb.Controller != nil {
		tb.Controller.shutdown()
	}
	tb.cancel()
	for _, l := range tb.listeners {
		l.Close()
	}
	tb.wg.Wait()
	os.RemoveAll(tb.dir)
}
