// Package control implements the Iris control plane of §5 of the paper: a
// centralized controller that configures optical space switches, tunable
// transceivers and amplifiers across a region, using the drain → switch →
// retune → undrain sequence that lets Iris avoid any online optical power
// management.
//
// The paper's controller drove vendor hardware over serial, HTTPS and
// NetConf; this package substitutes emulated device agents speaking a
// newline-delimited JSON protocol (wire.go is its codec) over a byte
// stream, preserving the control logic, command set and sequencing while
// making the whole plane testable in-process. A client reaches its agent
// through a Testbed's dial function, which opens an in-memory pipe of the
// package's own (pipe.go) and serves the agent's end in the same process,
// so an RPC makes no system call, a send does not wait for the agent to
// read it, and no agent has an address another process could reach.
package control

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// wireRequest is one controller-to-device command.
type wireRequest struct {
	ID   int64          `json:"id"`
	Op   string         `json:"op"`
	Args map[string]any `json:"args,omitempty"`
}

// wireResponse is a device's reply to a Request.
type wireResponse struct {
	ID     int64          `json:"id"`
	OK     bool           `json:"ok"`
	Error  string         `json:"error,omitempty"`
	Result map[string]any `json:"result,omitempty"`
}

// Device is the behaviour contract of an emulated optical component.
// Handle must be safe for concurrent use.
type Device interface {
	// Kind identifies the device type ("oss", "amp", "transceivers").
	Kind() string
	// Handle executes one operation and returns its result.
	Handle(op string, args map[string]any) (map[string]any, error)
}

// maxLine bounds one protocol line in either direction.
const maxLine = 1 << 20

func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	return sc
}

// serveConn answers every request line with exactly one response line,
// until the peer hangs up or sends a line longer than maxLine (which is
// answered with an error before the connection is dropped: the rest of
// the stream can no longer be framed).
func serveConn(rw io.ReadWriter, dev Device) {
	sc := newLineScanner(rw)
	var out []byte
	for sc.Scan() {
		out = respond(out[:0], sc.Bytes(), dev)
		if _, err := rw.Write(out); err != nil {
			return
		}
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		out, _ = appendResponse(out[:0], &wireResponse{Error: "malformed request: line too long"})
		_, _ = rw.Write(out) // the connection is being dropped either way
	}
}

// respond appends the response line to one request line.
func respond(dst, line []byte, dev Device) []byte {
	var req wireRequest
	var resp wireResponse
	if err := decodeRequest(line, &req); err != nil {
		resp.Error = "malformed request: " + err.Error()
	} else {
		resp.ID = req.ID
		result, err := handleCommon(dev, req.Op, req.Args)
		if err != nil {
			resp.Error = err.Error()
		} else {
			resp.OK = true
			resp.Result = result
		}
	}
	out, err := appendResponse(dst, &resp)
	if err != nil {
		// The device returned a value the protocol cannot carry.
		out, _ = appendResponse(dst, &wireResponse{ID: resp.ID, Error: err.Error()})
	}
	return out
}

// handleCommon answers protocol-level operations and delegates the rest to
// the device.
func handleCommon(dev Device, op string, args map[string]any) (map[string]any, error) {
	switch op {
	case "ping":
		return map[string]any{"kind": dev.Kind()}, nil
	case "":
		return nil, fmt.Errorf("empty op")
	default:
		return dev.Handle(op, args)
	}
}

// DefaultRPCTimeout is the default transport deadline. A hardware agent
// that does not answer must not wedge the controller (§5.2 budgets a
// reconfiguration in tens of milliseconds; seconds means the device is
// gone).
const DefaultRPCTimeout = 30 * time.Second

// client is a connection to one device agent. It serialises calls; one
// stream connection carries the exchange. The client dials on its first
// send, and a connection that times out or desynchronises is closed and
// dialled afresh by the send after it, so a device that heals becomes
// reachable again without rebuilding the controller.
type client struct {
	mu         sync.Mutex
	name       string          // the device's, for errors
	dial       func() *pipeEnd // opens a fresh connection to the agent
	rpcTimeout time.Duration
	conn       *pipeEnd // nil until the first send and after a failure
	sc         *bufio.Scanner
	wbuf       []byte // request line under construction, reused
	nextID     int64  // ID of the last request sent
	op         string // its operation, for recv's errors
	closed     bool
}

// newClient returns a client of the named device that has not dialled
// yet. rpcTimeout bounds each request end to end: zero selects the
// default, a negative value disables the deadline.
func newClient(name string, dial func() *pipeEnd, rpcTimeout time.Duration) *client {
	if rpcTimeout == 0 {
		rpcTimeout = DefaultRPCTimeout
	}
	return &client{name: name, dial: dial, rpcTimeout: rpcTimeout}
}

// failLocked drops the connection: a timed-out or desynchronised one may
// still deliver a stale response later, which would corrupt the framing
// of the next call, so it is closed and the next send dials a fresh one.
func (c *client) failLocked() {
	c.conn.Close()
	c.conn = nil
}

// send writes one request, dialling first if the client has no
// connection (send is the only place a client dials), sets its RPC
// deadline to run from sent and returns with c.mu held: the request is in
// flight, and the client locked, until recv reads its response or abandon
// gives it up. When send fails nothing is in flight and the lock is free.
// The write does not wait for the agent. The one caller with requests
// in flight on several clients, Controller.round, takes them in sorted
// device order, so two rounds cannot deadlock; it passes every send of a
// round the one time the round started, so the deadlines of all its
// requests fall together.
func (c *client) send(op string, args map[string]any, sent time.Time) (err error) {
	c.mu.Lock()
	defer func() {
		if err != nil {
			c.mu.Unlock()
		}
	}()
	if c.closed {
		return fmt.Errorf("control: client for %s is closed", c.name)
	}
	if c.conn == nil {
		c.conn = c.dial()
		c.sc = newLineScanner(c.conn)
	}
	c.nextID++
	line, err := appendRequest(c.wbuf[:0], &wireRequest{ID: c.nextID, Op: op, Args: args})
	if err != nil {
		return err // nothing was sent: the transport stays usable
	}
	if len(line) > maxLine {
		// The agent could not frame it: it would answer without an ID and
		// drop the connection. Send nothing, so the connection stays and
		// no buffer holds more than a line.
		return fmt.Errorf("control: %s request of %d bytes is past the protocol's %d-byte line", op, len(line), maxLine)
	}
	c.wbuf, c.op = line, op
	if c.rpcTimeout > 0 {
		c.conn.setReadDeadline(sent.Add(c.rpcTimeout))
	}
	if _, err := c.conn.Write(line); err != nil {
		c.failLocked()
		return fmt.Errorf("control: send %s: %w", op, err)
	}
	return nil
}

// recv reads the response to the request in flight and unlocks the client.
// The deadline send set stays on the connection: only send and recv do I/O
// on it, and every send sets a fresh one before it writes. The pipe judges
// it by when the reply arrived: one the device wrote in time is read
// however late recv comes to it (a round's device behind a wedged one),
// and one written after the deadline is refused, unread, as timed out.
func (c *client) recv() (map[string]any, error) {
	defer c.mu.Unlock()
	if !c.sc.Scan() {
		err := c.sc.Err()
		c.failLocked()
		if err != nil {
			return nil, fmt.Errorf("control: recv %s: %w", c.op, err)
		}
		return nil, fmt.Errorf("control: connection closed during %s", c.op)
	}
	var resp wireResponse
	if err := decodeResponse(c.sc.Bytes(), &resp); err != nil {
		c.failLocked()
		return nil, fmt.Errorf("control: decode response to %s: %w", c.op, err)
	}
	if resp.ID != c.nextID {
		c.failLocked()
		return nil, fmt.Errorf("control: response ID %d for request %d", resp.ID, c.nextID)
	}
	if !resp.OK {
		return nil, fmt.Errorf("control: %s: %s", c.op, resp.Error)
	}
	return resp.Result, nil
}

// abandon gives up the request in flight and unlocks the client; as its
// response may still arrive, the connection is dropped as after a timeout.
func (c *client) abandon() {
	c.failLocked()
	c.mu.Unlock()
}

// Close tears down the connection permanently; subsequent calls fail
// rather than dial.
func (c *client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}

// Argument decoding helpers. Off the wire a scalar number is a float64
// and an array of integer literals is an []int (wire.go); a caller in the
// same process may pass ints directly.

func asInt(v any) (int, bool) {
	switch n := v.(type) {
	case int:
		return n, true
	case float64:
		return int(n), n == float64(int(n))
	}
	return 0, false
}

// argIntSlice returns an integer-array argument. The slice is the
// caller's own (the decoder's, off the wire) and is not modified.
func argIntSlice(args map[string]any, key string) ([]int, error) {
	switch raw := args[key].(type) {
	case nil:
		return nil, fmt.Errorf("missing argument %q", key)
	case []int:
		return raw, nil
	case []any: // empty, or written with fractions or exponents
		out := make([]int, len(raw))
		for i, e := range raw {
			n, ok := asInt(e)
			if !ok {
				return nil, fmt.Errorf("argument %q[%d] must be an integer, got %v", key, i, e)
			}
			out[i] = n
		}
		return out, nil
	default:
		return nil, fmt.Errorf("argument %q must be an array, got %T", key, raw)
	}
}
