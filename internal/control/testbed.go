package control

import "sync"

// Testbed hosts a set of device agents and a controller connected to all
// of them — the in-process equivalent of the paper's hardware testbed
// (Fig. 13a). It exists for tests, examples and the daemons, whose
// devices live and die with them.
//
// Both ends of every RPC run in this process, so each connection is an
// in-memory pipe (newPipe): the line protocol crosses it without a system
// call, a write lands in the peer's buffer without waiting for a reader,
// and a device has no socket or address that anything outside the process
// could connect to.
type Testbed struct {
	Controller *Controller
	// Devices gives direct access to the devices as served, e.g. to set
	// a device's state behind the controller's back. A test reads a
	// device through its state op, as the controller does. A device
	// served behind a wrapper (a test's devicetest shim, a chaos fault
	// shim) is the wrapper here.
	Devices map[string]Device

	wg sync.WaitGroup // one per serving goroutine
}

// StartTestbed builds a controller of the named devices, with default
// transport deadlines; each device is served from its client's first
// send.
func StartTestbed(devices map[string]Device) (*Testbed, error) {
	return StartTestbedWithOptions(devices, DialOptions{})
}

// StartTestbedWithOptions is StartTestbed with explicit controller
// transport deadlines (tests use short RPC timeouts to exercise hung
// devices quickly). It does not fail: nothing is dialled until a
// client's first send, and a pipe dial cannot fail. The error result is
// kept for its callers.
func StartTestbedWithOptions(devices map[string]Device, opts DialOptions) (*Testbed, error) {
	tb := &Testbed{Devices: devices}
	dials := make(map[string]func() *pipeEnd, len(devices))
	for name, dev := range devices {
		dials[name] = tb.dialer(dev)
	}
	tb.Controller = newController(dials, opts)
	return tb, nil
}

// dialer returns the dial of dev's client: each call opens a fresh pipe
// and serves its agent end in a goroutine Close waits for, so a client
// that replaces a dropped connection gets a server of its own. A client
// dials only in send, under its lock and never once closed, so no dial
// follows the controller's shutdown in Close. The dial returns the pipe's
// own type: the client needs a read deadline and nothing else of a
// net.Conn.
func (tb *Testbed) dialer(dev Device) func() *pipeEnd {
	return func() *pipeEnd {
		conn, agent := newPipe()
		tb.wg.Add(1)
		go tb.serve(agent, dev)
		return conn
	}
}

// serve answers one pipe's requests until the client closes its end. A
// reply to a request the controller gave up fails on the closed pipe, so
// the server of a dropped connection ends once its device has answered.
func (tb *Testbed) serve(agent *pipeEnd, dev Device) {
	defer tb.wg.Done()
	serveConn(agent, dev)
	agent.Close()
}

// Close shuts down the controller, which closes the client end of every
// pipe (a dropped connection's was closed when it was dropped), and
// waits for every serving goroutine, those of redialled connections
// included. A second Close is harmless.
func (tb *Testbed) Close() {
	if tb.Controller != nil {
		tb.Controller.shutdown()
	}
	tb.wg.Wait()
}
