package control

import (
	"io"
	"os"
	"sync"
	"time"
)

// pipeEnd is one end of an in-memory duplex byte stream; newPipe returns
// both. A write appends to the peer's buffer and returns at once, so a
// round's sends never wait for an agent to read them; a reply waits in
// the client's buffer as it did in a kernel socket's. A connection carries
// at most one request and one reply at a time, so each buffer holds at
// most one line and is reused.
//
// An end has one reader at a time, and only it sets the end's deadline.
// The deadline judges when bytes arrived, not when they are read: a reply
// the device wrote in time is handed over however late its reader comes
// to it, and one it wrote after the deadline is refused.
type pipeEnd struct {
	mu     *sync.Mutex // the pipe's one lock, shared by both ends
	peer   *pipeEnd
	in     []byte        // written by the peer and not yet read
	ready  chan struct{} // a token asks a waiting Read to look again
	closed bool          // this end was closed

	deadline time.Time   // of Read; zero for none
	arrived  time.Time   // when in's first byte arrived; zero if no deadline was set then
	timer    *time.Timer // wakes a Read waiting on the deadline; made once
	armed    time.Time   // when timer was last set to fire
}

// newPipe returns the two ends of a fresh stream.
func newPipe() (*pipeEnd, *pipeEnd) {
	p := new(struct {
		mu   sync.Mutex
		a, b pipeEnd
	})
	p.a = pipeEnd{mu: &p.mu, peer: &p.b, ready: make(chan struct{}, 1)}
	p.b = pipeEnd{mu: &p.mu, peer: &p.a, ready: make(chan struct{}, 1)}
	return &p.a, &p.b
}

// setReadDeadline bounds every later Read: bytes the peer writes at or
// after t are refused with os.ErrDeadlineExceeded, and a Read waiting for
// bytes fails once t has passed. The zero time clears it. The end's one
// reader sets it between its reads, before the write its peer answers.
func (e *pipeEnd) setReadDeadline(t time.Time) {
	e.mu.Lock()
	e.deadline = t
	e.mu.Unlock()
}

// Read returns buffered bytes, or waits until the peer writes, either end
// closes or the deadline passes. Buffered bytes that arrived before the
// deadline are handed over whenever the Read comes, and ones that arrived
// after it are refused, so a round's replies are held to its one deadline
// by when each device answered, not by the order they are read in. Only a
// Read with nothing buffered reads the clock.
func (e *pipeEnd) Read(b []byte) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		var now time.Time
		switch {
		case e.closed:
			return 0, io.ErrClosedPipe
		case len(e.in) > 0:
			if !e.deadline.IsZero() && !e.arrived.Before(e.deadline) {
				return 0, os.ErrDeadlineExceeded
			}
			n := copy(b, e.in)
			e.in = e.in[:copy(e.in, e.in[n:])] // keeps the buffer for reuse
			return n, nil
		case !e.deadline.IsZero():
			if now = time.Now(); !now.Before(e.deadline) {
				return 0, os.ErrDeadlineExceeded
			}
		}
		if e.peer.closed {
			return 0, io.EOF
		}
		if !now.IsZero() {
			e.arm(now)
		}
		e.mu.Unlock()
		<-e.ready
		e.mu.Lock()
	}
}

// arm makes sure the timer fires by the deadline. One that will fire
// after now and no later than it is left alone: it may wake the Read
// early, and the Read then looks again and re-arms. So a timer armed for
// an earlier request's deadline serves the requests after it, and a
// connection re-arms about once per RPC timeout rather than once per RPC.
// Waking reads the clock again, so a timer that fires late for a deadline
// since replaced, or whose wake-up is still in flight, costs one more look.
func (e *pipeEnd) arm(now time.Time) {
	switch {
	case e.timer == nil:
		e.timer = time.AfterFunc(e.deadline.Sub(now), e.wake)
	case e.armed.After(now) && !e.armed.After(e.deadline):
		return
	default:
		e.timer.Reset(e.deadline.Sub(now))
	}
	e.armed = e.deadline
}

// wake leaves a token for the end's reader, unless one is waiting.
func (e *pipeEnd) wake() {
	select {
	case e.ready <- struct{}{}:
	default:
	}
}

// Write appends b to the peer's buffer and returns at once; into an empty
// buffer of a reader with a deadline it stamps the time the bytes arrived.
// It fails once either end is closed.
func (e *pipeEnd) Write(b []byte) (int, error) {
	e.mu.Lock()
	if e.closed || e.peer.closed {
		e.mu.Unlock()
		return 0, io.ErrClosedPipe
	}
	p := e.peer
	if len(p.in) == 0 {
		p.arrived = time.Time{}
		if !p.deadline.IsZero() {
			p.arrived = time.Now()
		}
	}
	p.in = append(p.in, b...)
	e.mu.Unlock()
	p.wake()
	return len(b), nil
}

// Close ends both directions: later writes on either end fail, a Read on
// this end fails and the peer's reads return what was written before the
// close, then io.EOF. Reads waiting on either end are woken.
func (e *pipeEnd) Close() error {
	e.mu.Lock()
	e.closed = true
	e.in = nil
	if e.timer != nil {
		e.timer.Stop()
	}
	e.mu.Unlock()
	e.wake()
	e.peer.wake()
	return nil
}
