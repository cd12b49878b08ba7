// Package control implements the Iris control plane of §5 of the paper: a
// centralized controller that configures optical space switches, tunable
// transceivers and amplifiers across a region, using the drain → switch →
// retune → undrain sequence that lets Iris avoid any online optical power
// management.
//
// The paper's controller drove vendor hardware over serial, HTTPS and
// NetConf; this package substitutes emulated device agents speaking a
// newline-delimited JSON protocol (wire.go is its codec) over a kernel byte
// stream, preserving the control logic, command set and sequencing while
// making the whole plane testable in-process. A Testbed serves its agents
// on Unix-domain sockets in a private directory: controller and agents
// share one process, so a Unix socket costs less CPU per RPC than loopback
// TCP, and the directory's mode admits only the process's own user. The
// client dials whatever network its agent listens on, TCP included.
package control

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
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

// serve accepts connections on l and serves dev until the listener is
// closed or ctx is cancelled. Cancellation closes active connections too,
// so Serve never blocks shutdown on clients that keep their sockets open.
// It returns the first non-shutdown error.
func serve(ctx context.Context, l net.Listener, dev Device) error {
	var (
		mu    sync.Mutex
		conns = make(map[net.Conn]bool)
	)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			l.Close()
			mu.Lock()
			for c := range conns {
				c.Close()
			}
			mu.Unlock()
		case <-done:
		}
	}()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("control: accept: %w", err)
		}
		mu.Lock()
		conns[conn] = true
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				conn.Close()
				mu.Lock()
				delete(conns, conn)
				mu.Unlock()
			}()
			serveConn(conn, dev)
		}()
	}
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

// Default transport deadlines. A hardware agent that neither accepts nor
// answers must not wedge the controller (§5.2 budgets a reconfiguration in
// tens of milliseconds; seconds means the device is gone).
const (
	defaultDialTimeout = 5 * time.Second
	DefaultRPCTimeout  = 30 * time.Second
)

// client is a connection to one device agent. It serialises calls; one
// stream connection carries the exchange, and a connection that times out or
// desynchronises is discarded and transparently redialled on the next
// call, so a device that heals becomes reachable again without rebuilding
// the controller.
type client struct {
	mu          sync.Mutex
	addr        net.Addr // the agent's listener, on any stream network
	dialTimeout time.Duration
	rpcTimeout  time.Duration
	conn        net.Conn
	sc          *bufio.Scanner
	wbuf        []byte // request line under construction, reused
	nextID      int64  // ID of the last request sent
	op          string // its operation, for recv's errors
	broken      bool
	closed      bool
}

// dialDeviceTimeout connects to a device agent.
// dialTimeout bounds connection establishment (and re-establishment);
// rpcTimeout bounds each request end to end. Zero values select the defaults;
// negative values disable the corresponding deadline.
func dialDeviceTimeout(addr net.Addr, dialTimeout, rpcTimeout time.Duration) (*client, error) {
	if dialTimeout == 0 {
		dialTimeout = defaultDialTimeout
	}
	if rpcTimeout == 0 {
		rpcTimeout = DefaultRPCTimeout
	}
	c := &client{addr: addr, dialTimeout: dialTimeout, rpcTimeout: rpcTimeout}
	if err := c.redialLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// redialLocked (re)establishes the transport. Callers hold c.mu, except
// from dialDeviceTimeout where the client is not yet shared.
func (c *client) redialLocked() error {
	var conn net.Conn
	var err error
	if c.dialTimeout > 0 {
		conn, err = net.DialTimeout(c.addr.Network(), c.addr.String(), c.dialTimeout)
	} else {
		conn, err = net.Dial(c.addr.Network(), c.addr.String())
	}
	if err != nil {
		return fmt.Errorf("control: dial %s: %w", c.addr, err)
	}
	c.conn, c.sc = conn, newLineScanner(conn)
	c.broken = false
	return nil
}

// failLocked poisons the transport: a timed-out or desynchronised
// connection may still deliver a stale response later, which would corrupt
// the framing of the next call, so it is closed and replaced lazily.
func (c *client) failLocked() {
	c.broken = true
	if c.conn != nil {
		c.conn.Close()
	}
}

// send writes one request, sets its RPC deadline to run from sent and
// returns with c.mu held: the request is in flight, and the client locked,
// until recv reads its response or abandon gives it up. When send fails
// nothing is in flight and the lock is free. The one caller with requests
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
		return fmt.Errorf("control: client for %s is closed", c.addr)
	}
	if c.broken || c.conn == nil {
		if err := c.redialLocked(); err != nil {
			return err
		}
	}
	c.nextID++
	line, err := appendRequest(c.wbuf[:0], &wireRequest{ID: c.nextID, Op: op, Args: args})
	if err != nil {
		return err // nothing was sent: the transport stays usable
	}
	c.wbuf, c.op = line, op
	if c.rpcTimeout > 0 {
		c.conn.SetDeadline(sent.Add(c.rpcTimeout))
	}
	if _, err := c.conn.Write(line); err != nil {
		c.failLocked()
		return fmt.Errorf("control: send %s: %w", op, err)
	}
	return nil
}

// recv reads the response to the request in flight and unlocks the client.
// The deadline send set stays on the connection: only send and recv do I/O
// on it, and every send sets a fresh one before it writes.
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

// recvBy is recv for a request whose deadline ran from sent. Once that
// deadline has passed on the clock the request is abandoned, unread, as
// timed out. The connection's own deadline takes effect only when its
// runtime timer fires, which on a busy host can be well after a wedged
// device earlier in a round used the deadline up; reading the clock first
// holds every request of the round to the one deadline.
func (c *client) recvBy(sent time.Time) (map[string]any, error) {
	if c.rpcTimeout > 0 && !time.Now().Before(sent.Add(c.rpcTimeout)) {
		op := c.op
		c.abandon()
		return nil, fmt.Errorf("control: recv %s: %w", op, os.ErrDeadlineExceeded)
	}
	return c.recv()
}

// abandon gives up the request in flight and unlocks the client; as its
// response may still arrive, the connection is poisoned as after a timeout.
func (c *client) abandon() {
	c.failLocked()
	c.mu.Unlock()
}

// Close tears down the connection permanently; subsequent calls fail
// rather than redial.
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
