// Package devicetest is a programmable device for tests, as
// net/http/httptest is a programmable server: Wrap puts any device behind a
// *Device that logs every request it handles and answers through one hook
// a test can arm, replace or disarm while the device is being served. A
// hook can fail, stall, garble, lie, refuse, cancel or echo; every device
// behaviour a test needs is a hook, not a new device type.
//
// The package does not import internal/control, so control's own tests can
// use it: a *Device has the two methods of control.Device and so is one.
// Only tests may import it (TestArchitecture).
package devicetest

import (
	"errors"
	"slices"
	"sync"
	"testing"
)

// Inner is what a Device wraps: the methods of control.Device.
type Inner interface {
	Kind() string
	Handle(op string, args map[string]any) (map[string]any, error)
}

// Call is one request a Device handled.
type Call struct {
	Op    string
	State bool // the request's args carried "state": true
}

// Next serves a request on the wrapped device.
type Next func(op string, args map[string]any) (map[string]any, error)

// Hook answers one request in the wrapped device's place; a hook that
// passes the request on returns next(op, args).
type Hook func(op string, args map[string]any, next Next) (map[string]any, error)

// Device logs the requests it handles and answers them through its hook,
// or, disarmed, through the device it wraps. Its methods are safe for
// concurrent use.
type Device struct {
	inner Inner
	next  Next // inner.Handle, bound once

	mu   sync.Mutex
	log  []Call // reused by Take, so logging allocates only while it grows
	hook Hook
}

// Wrap returns a disarmed Device in front of inner.
func Wrap(inner Inner) *Device { return &Device{inner: inner, next: inner.Handle} }

// Inner returns the wrapped device.
func (d *Device) Inner() Inner { return d.inner }

// Kind is the wrapped device's kind.
func (d *Device) Kind() string { return d.inner.Kind() }

// Handle logs the request and answers it through the armed hook, if any.
func (d *Device) Handle(op string, args map[string]any) (map[string]any, error) {
	state, _ := args["state"].(bool)
	d.mu.Lock()
	d.log = append(d.log, Call{Op: op, State: state})
	hook := d.hook
	d.mu.Unlock()
	if hook == nil {
		return d.inner.Handle(op, args)
	}
	return hook(op, args, d.next)
}

// Arm makes hook answer every request from the next one on; nil disarms.
// A request already inside a hook finishes there.
func (d *Device) Arm(hook Hook) {
	d.mu.Lock()
	d.hook = hook
	d.mu.Unlock()
}

// Take returns the requests handled since the last Take and starts a new
// log.
func (d *Device) Take() []Call {
	d.mu.Lock()
	defer d.mu.Unlock()
	calls := slices.Clone(d.log)
	d.log = d.log[:0]
	return calls
}

// Set holds the Devices a bring-up wrapped, by device name. A rig adapts
// Wrap to fabric.BringUpConfig.WrapDevice with one closure; bring-up wraps
// its devices one at a time.
type Set map[string]*Device

// Wrap wraps inner and keeps the Device as name's.
func (s Set) Wrap(name string, inner Inner) *Device {
	d := Wrap(inner)
	s[name] = d
	return d
}

// Take takes every Device's log and returns the ones that are not empty,
// by device name.
func (s Set) Take() map[string][]Call {
	logs := make(map[string][]Call)
	for name, d := range s {
		if calls := d.Take(); len(calls) > 0 {
			logs[name] = calls
		}
	}
	return logs
}

var errInjected = errors.New("devicetest: injected fault")

// Fail is a hook that refuses every request with an error, which the
// device's agent answers as an error line.
func Fail(string, map[string]any, Next) (map[string]any, error) {
	return nil, errInjected
}

// Stall returns a hook that holds every request until release is called
// and then serves it. Release may be called more than once, and t's
// Cleanup calls it: a Stall made after the testbed has started is released
// before the testbed's Close, which would otherwise wait for it.
func Stall(t testing.TB) (hook Hook, release func()) {
	released := make(chan struct{})
	release = sync.OnceFunc(func() { close(released) })
	t.Cleanup(release)
	return func(op string, args map[string]any, next Next) (map[string]any, error) {
		<-released
		return next(op, args)
	}, release
}
