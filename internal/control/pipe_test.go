package control

import (
	"bytes"
	"errors"
	"io"
	"os"
	"testing"
	"time"
)

// TestPipeKeepsByteOrder: lines written one after another come out in
// order through reads shorter than a line, and a write returns before
// anything reads it.
func TestPipeKeepsByteOrder(t *testing.T) {
	a, b := newPipe()
	defer a.Close()
	var want []byte
	for _, line := range []string{"{\"id\":1,\"op\":\"state\"}\n", "x\n", "{\"id\":2,\"ok\":true,\"result\":{\"in\":[0,12]}}\n"} {
		if n, err := a.Write([]byte(line)); n != len(line) || err != nil {
			t.Fatalf("write = %d, %v; want %d, nil", n, err, len(line))
		}
		want = append(want, line...)
	}
	var got []byte
	buf := make([]byte, 5)
	for len(got) < len(want) {
		n, err := b.Read(buf)
		if err != nil {
			t.Fatalf("read after %q: %v", got, err)
		}
		got = append(got, buf[:n]...)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("read %q, want %q", got, want)
	}

	// The other direction, with the reader waiting first.
	done := make(chan []byte)
	go func() {
		var got []byte
		buf := make([]byte, 3)
		for len(got) < 8 {
			n, err := a.Read(buf)
			if err != nil {
				break
			}
			got = append(got, buf[:n]...)
		}
		done <- got
	}()
	time.Sleep(10 * time.Millisecond)
	b.Write([]byte("abcd"))
	b.Write([]byte("efgh"))
	if got := <-done; string(got) != "abcdefgh" {
		t.Errorf("waiting reader read %q, want abcdefgh", got)
	}
}

// TestPipeCloseEndsBothDirections: closing one end wakes a Read waiting
// on either end, the closed end's with io.ErrClosedPipe and the peer's
// with io.EOF once it has read what was written before the close, and
// every later write fails, on both ends.
func TestPipeCloseEndsBothDirections(t *testing.T) {
	for _, closer := range []string{"a", "b"} {
		t.Run("close "+closer, func(t *testing.T) {
			a, b := newPipe()
			closed, peer := a, b
			if closer == "b" {
				closed, peer = b, a
			}
			errs := make(chan error, 2)
			for _, e := range []*pipeEnd{closed, peer} {
				go func() {
					_, err := e.Read(make([]byte, 8))
					errs <- err
				}()
			}
			time.Sleep(10 * time.Millisecond) // both reads waiting
			closed.Close()
			for i := 0; i < 2; i++ {
				select {
				case err := <-errs:
					if !errors.Is(err, io.ErrClosedPipe) && !errors.Is(err, io.EOF) {
						t.Errorf("woken read = %v, want io.ErrClosedPipe or io.EOF", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("Close did not wake a waiting read")
				}
			}
			if _, err := closed.Read(make([]byte, 8)); !errors.Is(err, io.ErrClosedPipe) {
				t.Errorf("read on the closed end = %v, want io.ErrClosedPipe", err)
			}
			if _, err := peer.Read(make([]byte, 8)); !errors.Is(err, io.EOF) {
				t.Errorf("read on the peer = %v, want io.EOF", err)
			}
			for _, e := range []*pipeEnd{closed, peer} {
				if _, err := e.Write([]byte("x\n")); !errors.Is(err, io.ErrClosedPipe) {
					t.Errorf("write after Close = %v, want io.ErrClosedPipe", err)
				}
			}
		})
	}

	// What was written before a close is still read, then io.EOF.
	a, b := newPipe()
	a.Write([]byte("last\n"))
	a.Close()
	got, err := io.ReadAll(b)
	if string(got) != "last\n" || err != nil {
		t.Errorf("read after the peer closed = %q, %v; want \"last\\n\", nil", got, err)
	}
}

// TestPipeDeadlineJudgesArrival: the deadline judges when a reply
// arrived, not when it is read. A reply written before the deadline is
// handed over by a Read that comes after it, as a round's reply behind a
// wedged device is; one written after the deadline is refused with
// os.ErrDeadlineExceeded although it is buffered. Clearing the deadline
// hands that one over.
func TestPipeDeadlineJudgesArrival(t *testing.T) {
	a, b := newPipe()
	defer a.Close()
	reply := []byte("{\"id\":1,\"ok\":true}\n")
	buf := make([]byte, 64)

	deadline := time.Now().Add(50 * time.Millisecond)
	a.setReadDeadline(deadline)
	b.Write(reply)
	time.Sleep(time.Until(deadline) + 10*time.Millisecond)
	if n, err := a.Read(buf); string(buf[:n]) != string(reply) || err != nil {
		t.Fatalf("read after the deadline of a reply that arrived before it = %q, %v; want the reply", buf[:n], err)
	}

	a.setReadDeadline(time.Now().Add(-time.Millisecond))
	b.Write(reply)
	for i := 0; i < 2; i++ {
		if _, err := a.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) || !isDeadline(err) {
			t.Fatalf("read of a reply that arrived after the deadline = %v, want os.ErrDeadlineExceeded", err)
		}
	}
	a.setReadDeadline(time.Time{})
	if n, err := a.Read(buf); string(buf[:n]) != string(reply) || err != nil {
		t.Errorf("read with the deadline cleared = %q, %v; want the reply", buf[:n], err)
	}
}

// TestPipeDeadlineRearms: the end's one timer serves deadline after
// deadline. A deadline that fired does not fail a later Read early; a
// timer still armed for an earlier deadline wakes the Read before its
// own, which goes on waiting; one armed for a later deadline does not
// hold a Read past an earlier one.
func TestPipeDeadlineRearms(t *testing.T) {
	a, b := newPipe()
	defer a.Close()
	read := func() (string, time.Duration, error) {
		start := time.Now()
		buf := make([]byte, 64)
		n, err := a.Read(buf)
		return string(buf[:n]), time.Since(start), err
	}
	writeAfter := func(d time.Duration, s string) {
		time.AfterFunc(d, func() { b.Write([]byte(s)) })
	}

	// A deadline that fires.
	a.setReadDeadline(time.Now().Add(20 * time.Millisecond))
	if _, took, err := read(); !errors.Is(err, os.ErrDeadlineExceeded) || took < 20*time.Millisecond {
		t.Fatalf("read = %v after %v, want the deadline after 20ms", err, took)
	}
	// A later one: the reply comes after the first timer's instant and
	// well inside the second deadline.
	a.setReadDeadline(time.Now().Add(5 * time.Second))
	writeAfter(40*time.Millisecond, "one\n")
	if got, _, err := read(); got != "one\n" || err != nil {
		t.Fatalf("read under a later deadline = %q, %v; want \"one\\n\"", got, err)
	}
	// The timer is now armed for that 5 s deadline; a shorter one must
	// still fail the Read on time.
	a.setReadDeadline(time.Now().Add(30 * time.Millisecond))
	if _, took, err := read(); !errors.Is(err, os.ErrDeadlineExceeded) || took > 2*time.Second {
		t.Fatalf("read under a shorter deadline = %v after %v, want the deadline after 30ms", err, took)
	}
	// A timer armed for an earlier request's deadline wakes the Read of a
	// later one before its time: the Read waits on for the reply.
	a.setReadDeadline(time.Now().Add(50 * time.Millisecond))
	writeAfter(5*time.Millisecond, "two\n")
	if got, _, err := read(); got != "two\n" || err != nil {
		t.Fatalf("read = %q, %v; want \"two\\n\"", got, err)
	}
	a.setReadDeadline(time.Now().Add(5 * time.Second))
	writeAfter(150*time.Millisecond, "three\n")
	if got, took, err := read(); got != "three\n" || err != nil || took < 100*time.Millisecond {
		t.Fatalf("read past an earlier deadline's timer = %q, %v after %v; want \"three\\n\" after ≈150ms", got, err, took)
	}
}
