package control

import (
	"net"
	"sync"
)

// Testbed hosts a set of device agents and a controller connected to all
// of them — the in-process equivalent of the paper's hardware testbed
// (Fig. 13a). It exists for tests, examples and the daemons, whose
// devices live and die with them.
//
// Both ends of every RPC run in this process, so each connection is an
// in-memory pipe (net.Pipe): the line protocol crosses it without a system
// call, and a device has no socket or address that anything outside the
// process could connect to.
type Testbed struct {
	Controller *Controller
	// Devices gives direct access to the devices as served, e.g. to read
	// or set a device's state behind the controller's back. A device
	// served behind a wrapper (a test's devicetest shim, a chaos fault
	// shim) is the wrapper here.
	Devices map[string]Device

	wg sync.WaitGroup // one per serving goroutine
}

// StartTestbed serves each named device and dials a controller to all of
// them, with default transport deadlines.
func StartTestbed(devices map[string]Device) (*Testbed, error) {
	return StartTestbedWithOptions(devices, DialOptions{})
}

// StartTestbedWithOptions is StartTestbed with explicit controller
// transport deadlines (tests use short RPC timeouts to exercise hung
// devices quickly).
func StartTestbedWithOptions(devices map[string]Device, opts DialOptions) (*Testbed, error) {
	tb := &Testbed{Devices: devices}
	specs := make([]deviceSpec, 0, len(devices))
	for _, name := range sortedKeys(devices) {
		specs = append(specs, deviceSpec{Name: name, dial: tb.dialer(devices[name])})
	}
	ctl, err := dialWithOptions(specs, opts)
	if err != nil {
		tb.Close()
		return nil, err
	}
	tb.Controller = ctl
	return tb, nil
}

// dialer returns the dial of dev's client: each call opens a fresh pipe
// and serves its agent end in a goroutine Close waits for, so a client
// that replaces a poisoned connection gets a server of its own. A client
// dials only under its lock and never once closed, so no dial follows
// the controller's shutdown in Close.
func (tb *Testbed) dialer(dev Device) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		conn, agent := net.Pipe()
		tb.wg.Add(1)
		go tb.serve(agent, dev)
		return conn, nil
	}
}

// serve answers one pipe's requests until the client closes its end. A
// reply to a request the controller gave up fails on the closed pipe, so
// the server of a poisoned connection ends once its device has answered.
func (tb *Testbed) serve(agent net.Conn, dev Device) {
	defer tb.wg.Done()
	serveConn(agent, dev)
	agent.Close()
}

// Close shuts down the controller, which closes the client end of every
// pipe (a poisoned connection's was closed when it was poisoned), and
// waits for every serving goroutine, those of redialled connections
// included. A second Close is harmless.
func (tb *Testbed) Close() {
	if tb.Controller != nil {
		tb.Controller.shutdown()
	}
	tb.wg.Wait()
}
