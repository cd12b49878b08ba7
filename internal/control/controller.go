package control

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"iris/internal/trace"
)

// DeviceSpec names one device agent and where to reach it.
type DeviceSpec struct {
	Name string
	Addr string
}

// Controller is the centralized Iris controller (§5.2). It holds one
// connection per device and executes reconfigurations as strictly ordered
// phases: drain traffic, switch fibers, retune wavelengths and refill
// spectrum, then undrain.
type Controller struct {
	mu      sync.Mutex
	devices map[string]*Client
}

// DialOptions configures the controller's per-device transports. Zero
// values select the package defaults.
type DialOptions struct {
	DialTimeout time.Duration // connection establishment bound
	RPCTimeout  time.Duration // end-to-end bound per device call
}

// Dial connects to all device agents with default transport deadlines. On
// any failure it closes the connections already made and returns the error.
func Dial(specs []DeviceSpec) (*Controller, error) {
	return DialWithOptions(specs, DialOptions{})
}

// DialWithOptions connects to all device agents with explicit transport
// deadlines.
func DialWithOptions(specs []DeviceSpec, opts DialOptions) (*Controller, error) {
	c := &Controller{devices: make(map[string]*Client, len(specs))}
	for _, s := range specs {
		if _, dup := c.devices[s.Name]; dup {
			c.Close()
			return nil, fmt.Errorf("control: duplicate device name %q", s.Name)
		}
		cl, err := DialDeviceTimeout(s.Addr, opts.DialTimeout, opts.RPCTimeout)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.devices[s.Name] = cl
	}
	return c, nil
}

// DeviceError tags an error with the device whose call produced it, so a
// supervisor (the irisd breaker) can attribute failures to the right
// device. Use errors.As to recover it from wrapped phase errors.
type DeviceError struct {
	Device string
	Err    error
}

func (e *DeviceError) Error() string { return fmt.Sprintf("device %s: %v", e.Device, e.Err) }

// Unwrap exposes the underlying transport or device error.
func (e *DeviceError) Unwrap() error { return e.Err }

// Close tears down all device connections.
func (c *Controller) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cl := range c.devices {
		cl.Close()
	}
	c.devices = nil
}

// Call forwards one operation to a named device.
func (c *Controller) Call(device, op string, args map[string]any) (map[string]any, error) {
	c.mu.Lock()
	cl, ok := c.devices[device]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("control: unknown device %q", device)
	}
	res, err := cl.Call(op, args)
	if err != nil {
		return nil, &DeviceError{Device: device, Err: err}
	}
	return res, nil
}

// tracedCall runs one device RPC under a child span of parent named
// span, carrying the device attribution and the deadline outcome. A nil
// parent (no tracer, or an untraced caller) records nothing and adds no
// overhead beyond the nil checks.
func (c *Controller) tracedCall(parent *trace.Span, span, device, op string, args map[string]any) (map[string]any, error) {
	sp := parent.Child(span)
	sp.SetDevice(device)
	res, err := c.Call(device, op, args)
	if err != nil {
		sp.Fail(err)
		if isDeadline(err) {
			sp.SetAttr("deadline_exceeded")
		}
	}
	sp.Finish()
	return res, err
}

// isDeadline reports whether an RPC error is a transport or context
// deadline expiry — the outcome the per-RPC spans single out, since a
// deadline means the device wedged rather than refused.
func isDeadline(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Devices returns the connected device names in sorted order.
func (c *Controller) Devices() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return sortedKeys(c.devices)
}

// OSSOp is one space-switch operation.
type OSSOp struct {
	Device     string
	In, Out    int
	Disconnect bool // tear down the circuit from In instead of creating one
}

// TransceiverOp addresses one transceiver in a bank.
type TransceiverOp struct {
	Device     string
	Idx        int
	Wavelength int // used by retune operations
}

// FillOp sets a channel emulator's ASE-filled channel set.
type FillOp struct {
	Device   string
	Channels []int
}

// AmpOp enables or disables an amplifier group at a site.
type AmpOp struct {
	Device string
	Enable bool
}

// Change is one reconfiguration: the controller first drains the listed
// transceivers (no live traffic during switching, §5.2), then executes the
// OSS operations network-wide, then the per-DC wavelength retunes and
// spectrum fills, and finally re-enables the undrain set.
type Change struct {
	Drain    []TransceiverOp
	Switches []OSSOp
	// Amps run after the switches and before traffic returns: an
	// amplifier must be providing gain before its path goes live, and
	// unused amplifiers are parked to keep ASE out of dark fibers.
	Amps    []AmpOp
	Retunes []TransceiverOp
	Fills   []FillOp
	Undrain []TransceiverOp
}

// PhaseTiming reports how long one phase of a reconfiguration took.
type PhaseTiming struct {
	Name     string
	Duration time.Duration
	Ops      int
}

// Report summarises an executed reconfiguration.
type Report struct {
	Phases []PhaseTiming
	Total  time.Duration
}

// Reconfigure executes the change. Phases run strictly in order; within a
// phase each device receives its operations as one batch RPC, and devices
// run concurrently. The first error aborts subsequent phases. Report
// counts operations, not RPCs.
//
// When ctx carries a span (trace.ContextWith — the daemon threads its
// reconfig root through here), each phase becomes a child span with
// per-device children, so the flight recorder captures the §5.2 sequence
// drain → switch → amps → retune → fill → undrain with per-device
// durations and deadline outcomes.
func (c *Controller) Reconfigure(ctx context.Context, ch Change) (Report, error) {
	var rep Report
	start := time.Now()
	parent := trace.FromContext(ctx)
	phases := []struct {
		name string
		run  func(sp *trace.Span) error
		ops  int
	}{
		{"drain", func(sp *trace.Span) error { return c.transceiverPhase(ctx, sp, ch.Drain, "disable") }, len(ch.Drain)},
		{"switch", func(sp *trace.Span) error { return c.switchPhase(ctx, sp, ch.Switches) }, len(ch.Switches)},
		{"amps", func(sp *trace.Span) error { return c.ampPhase(ctx, sp, ch.Amps) }, len(ch.Amps)},
		{"retune", func(sp *trace.Span) error { return c.transceiverPhase(ctx, sp, ch.Retunes, "tune") }, len(ch.Retunes)},
		{"fill", func(sp *trace.Span) error { return c.fillPhase(ctx, sp, ch.Fills) }, len(ch.Fills)},
		{"undrain", func(sp *trace.Span) error { return c.transceiverPhase(ctx, sp, ch.Undrain, "enable") }, len(ch.Undrain)},
	}
	for _, ph := range phases {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		sp := parent.Child(ph.name)
		t0 := time.Now()
		if err := ph.run(sp); err != nil {
			sp.Fail(err)
			sp.Finish()
			return rep, fmt.Errorf("control: %s phase: %w", ph.name, err)
		}
		sp.Finish()
		rep.Phases = append(rep.Phases, PhaseTiming{Name: ph.name, Duration: time.Since(t0), Ops: ph.ops})
	}
	rep.Total = time.Since(start)
	return rep, nil
}

// parallel runs fns concurrently and returns the first error.
func parallel(ctx context.Context, fns []func() error) error {
	if len(fns) == 0 {
		return nil
	}
	errs := make(chan error, len(fns))
	for _, fn := range fns {
		go func(f func() error) { errs <- f() }(fn)
	}
	var first error
	for range fns {
		select {
		case err := <-errs:
			if err != nil && first == nil {
				first = err
			}
		case <-ctx.Done():
			if first == nil {
				first = ctx.Err()
			}
		}
	}
	return first
}

// sortedKeys returns a map's keys (device names, switch ports) in
// ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// perDevice runs call once per device group, concurrently, issuing the
// groups in sorted device order, and returns the first error.
func perDevice[V any](ctx context.Context, groups map[string]V, call func(dev string, group V) error) error {
	fns := make([]func() error, 0, len(groups))
	for _, dev := range sortedKeys(groups) {
		dev, group := dev, groups[dev]
		fns = append(fns, func() error { return call(dev, group) })
	}
	return parallel(ctx, fns)
}

// transceiverPhase executes one phase's per-transceiver operations (op is
// "disable", "tune" or "enable") as one batch RPC per bank: banks run
// concurrently, and a bank applies its batch only if every entry passes
// its checks. Each bank gets one span, named after the phase's operation,
// covering its batch.
func (c *Controller) transceiverPhase(ctx context.Context, sp *trace.Span, ops []TransceiverOp, op string) error {
	type batch struct{ idxs, wavelengths []int }
	byDev := make(map[string]*batch)
	for _, o := range ops {
		b := byDev[o.Device]
		if b == nil {
			b = new(batch)
			byDev[o.Device] = b
		}
		b.idxs = append(b.idxs, o.Idx)
		if op == "tune" {
			b.wavelengths = append(b.wavelengths, o.Wavelength)
		}
	}
	return perDevice(ctx, byDev, func(dev string, b *batch) error {
		args := map[string]any{"idxs": b.idxs}
		if op == "tune" {
			args["wavelengths"] = b.wavelengths
		}
		_, err := c.tracedCall(sp, op, dev, op+"-batch", args)
		return err
	})
}

// switchPhase executes the OSS operations. Disconnects precede connects so
// a circuit can move to a port being vacated in the same change; within
// each direction, operations are batched per device — the physical switch
// settles all of a batch's mirrors in one window — and devices run
// concurrently.
func (c *Controller) switchPhase(ctx context.Context, sp *trace.Span, ops []OSSOp) error {
	type batch struct{ ins, outs []int }
	disc := make(map[string]*batch)
	conn := make(map[string]*batch)
	for _, o := range ops {
		groups := conn
		if o.Disconnect {
			groups = disc
		}
		b := groups[o.Device]
		if b == nil {
			b = new(batch)
			groups[o.Device] = b
		}
		b.ins = append(b.ins, o.In)
		if !o.Disconnect {
			b.outs = append(b.outs, o.Out)
		}
	}
	err := perDevice(ctx, disc, func(dev string, b *batch) error {
		_, err := c.tracedCall(sp, "disconnect-batch", dev, "disconnect-batch", map[string]any{"ins": b.ins})
		return err
	})
	if err != nil {
		return err
	}
	return perDevice(ctx, conn, func(dev string, b *batch) error {
		_, err := c.tracedCall(sp, "connect-batch", dev, "connect-batch", map[string]any{"ins": b.ins, "outs": b.outs})
		return err
	})
}

// ampPhase switches amplifier groups on or off, one RPC per device. Of
// several operations naming one device the last decides: a change that
// parks an amplifier with the last circuit it tears down and lights it for
// the first it establishes must leave it on, not race the two.
func (c *Controller) ampPhase(ctx context.Context, sp *trace.Span, ops []AmpOp) error {
	final := make(map[string]bool)
	for _, o := range ops {
		final[o.Device] = o.Enable
	}
	return perDevice(ctx, final, func(dev string, enable bool) error {
		op := "disable"
		if enable {
			op = "enable"
		}
		_, err := c.tracedCall(sp, op, dev, op, nil)
		return err
	})
}

func (c *Controller) fillPhase(ctx context.Context, sp *trace.Span, ops []FillOp) error {
	fns := make([]func() error, 0, len(ops))
	for _, o := range ops {
		o := o
		fns = append(fns, func() error {
			_, err := c.tracedCall(sp, "fill", o.Device, "fill", map[string]any{"channels": o.Channels})
			return err
		})
	}
	return parallel(ctx, fns)
}

// Expected is the controller's whole intent for the devices it names
// ("the devices are in expected state", §6.2). A device appears under every
// field that describes its kind; Audit and Repair fetch and check each
// named device and nothing else.
type Expected struct {
	// Cross maps OSS device name to its expected input→output map (empty
	// for a switch that must carry no circuit).
	Cross map[string]map[int]int
	// Tuned maps transceiver-bank device name to per-index wavelengths
	// (-1 for untuned).
	Tuned map[string][]int
	// Enabled maps transceiver-bank device name to per-index live state.
	Enabled map[string][]bool
	// Filled maps emulator device name to its ASE channel set (ascending).
	Filled map[string][]int
	// Amps maps amplifier device name to whether it must provide gain.
	Amps map[string]bool
}

// devices returns every device the expectation names, sorted.
func (e Expected) devices() []string {
	seen := make(map[string]bool, len(e.Cross)+len(e.Enabled)+len(e.Filled)+len(e.Amps))
	named(seen, e.Cross)
	named(seen, e.Tuned)
	named(seen, e.Enabled)
	named(seen, e.Filled)
	named(seen, e.Amps)
	return sortedKeys(seen)
}

func named[V any](seen map[string]bool, field map[string]V) {
	for dev := range field {
		seen[dev] = true
	}
}

// eachState is the one fetch loop behind the audit and the repair: the
// "state" of every device the expectation names, in sorted order, handed to
// visit until a fetch or a visit fails. When ctx carries a span every fetch
// is a per-device "state" child of it, so both appear in the flight
// recorder beside the reconfiguration they verify.
func (c *Controller) eachState(ctx context.Context, exp Expected, visit func(dev string, st map[string]any) error) error {
	sp := trace.FromContext(ctx)
	for _, dev := range exp.devices() {
		if err := ctx.Err(); err != nil {
			return err
		}
		st, err := c.tracedCall(sp, "state", dev, "state", nil)
		if err != nil {
			return err
		}
		if err := visit(dev, st); err != nil {
			return err
		}
	}
	return nil
}

// Audit checks every expected device against the expectation, returning
// an error describing the first mismatch.
func (c *Controller) Audit(exp Expected) error {
	return c.AuditCtx(context.Background(), exp)
}

// AuditCtx is Audit with span plumbing (see eachState). The audit passes
// exactly when the repair of the fetched states is empty: it stops at the
// first device whose state needs an operation to match intent. A reply
// that is not a well-formed state — a missing field, a value of the wrong
// type — is a *DeviceError against that device, like a failed call; a
// well-formed state that differs from intent is a plain mismatch error
// naming the device and the field.
func (c *Controller) AuditCtx(ctx context.Context, exp Expected) error {
	return c.eachState(ctx, exp, func(dev string, st map[string]any) error {
		var ch Change
		diff, err := exp.repair(&ch, dev, st)
		if err == nil && diff != "" {
			err = fmt.Errorf("control: audit %s: %s", dev, diff)
		}
		return err
	})
}

// Repair fetches every expected device's state and returns the change that
// moves them to the expectation (Expected.Repair); empty, the audit passes.
func (c *Controller) Repair(ctx context.Context, exp Expected) (Change, error) {
	var ch Change
	err := c.eachState(ctx, exp, func(dev string, st map[string]any) error {
		_, err := exp.repair(&ch, dev, st)
		return err
	})
	if err != nil {
		return Change{}, err
	}
	return ch, nil
}

// Repair returns the change that moves every device in states (device
// name to "state" result, as Controller.Call returns it) to the
// expectation: the audit turned into anti-entropy. Expected devices absent
// from states are left untouched; a malformed state is a *DeviceError.
// Reconfigure runs the change in the usual order: drains, disconnects,
// connects, amplifiers, retunes, fills, undrains.
func (e Expected) Repair(states map[string]map[string]any) (Change, error) {
	var ch Change
	for _, dev := range e.devices() {
		st, ok := states[dev]
		if !ok {
			continue
		}
		if _, err := e.repair(&ch, dev, st); err != nil {
			return Change{}, err
		}
	}
	return ch, nil
}

// repair is the one comparison of a device's reported state with intent.
// It appends to ch the operations that move the device to everything the
// expectation holds for it and describes the first field that differed:
// diff is "" exactly when nothing was appended. A state that is not well
// formed, or is of a bank of another size than intent's, is a *DeviceError.
func (e Expected) repair(ch *Change, dev string, st map[string]any) (diff string, err error) {
	differs := func(field string, got, want any) {
		if diff == "" {
			diff = fmt.Sprintf("%s %v, want %v", field, got, want)
		}
	}
	malformed := func(err error) (string, error) {
		return "", &DeviceError{Device: dev, Err: err}
	}

	if want, ok := e.Cross[dev]; ok {
		got, err := stateCross(st)
		if err != nil {
			return malformed(err)
		}
		if !maps.Equal(got, want) {
			differs("cross map", got, want)
			for _, in := range sortedKeys(got) {
				if out, ok := want[in]; !ok || out != got[in] {
					ch.Switches = append(ch.Switches, OSSOp{Device: dev, In: in, Disconnect: true})
				}
			}
			for _, in := range sortedKeys(want) {
				if out, ok := got[in]; !ok || out != want[in] {
					ch.Switches = append(ch.Switches, OSSOp{Device: dev, In: in, Out: want[in]})
				}
			}
		}
	}

	wantTuned, hasTuned := e.Tuned[dev]
	wantLive, hasLive := e.Enabled[dev]
	if hasTuned || hasLive {
		// Retuning needs the transceiver drained: a stray live one is
		// drained, a wrong wavelength retuned (drained first if live), and
		// one that must be live retuned and undrained unless it already is
		// live on its wavelength. A field the expectation leaves out is
		// taken as reported.
		tuned, err := stateInts(st, "tuned")
		if err != nil {
			return malformed(err)
		}
		live, err := stateBools(st, "enabled")
		if err != nil {
			return malformed(err)
		}
		if !hasTuned {
			wantTuned = tuned
		}
		if !hasLive {
			wantLive = live
		}
		if len(tuned) != len(wantTuned) || len(live) != len(wantLive) || len(tuned) != len(live) {
			return malformed(fmt.Errorf("bank reports %d tuned and %d enabled entries, intent has %d and %d",
				len(tuned), len(live), len(wantTuned), len(wantLive)))
		}
		for idx := range live {
			onWavelength := tuned[idx] == wantTuned[idx]
			switch {
			case !onWavelength:
				differs("tuned", tuned, wantTuned)
			case live[idx] != wantLive[idx]:
				differs("enabled", live, wantLive)
			default:
				continue
			}
			op := TransceiverOp{Device: dev, Idx: idx}
			if live[idx] {
				ch.Drain = append(ch.Drain, op)
			}
			if wantLive[idx] || !onWavelength {
				ch.Retunes = append(ch.Retunes, TransceiverOp{Device: dev, Idx: idx, Wavelength: wantTuned[idx]})
			}
			if wantLive[idx] {
				ch.Undrain = append(ch.Undrain, op)
			}
		}
	}

	if want, ok := e.Filled[dev]; ok {
		got, err := stateInts(st, "filled")
		if err != nil {
			return malformed(err)
		}
		if !slices.Equal(got, want) {
			differs("filled", got, want)
			ch.Fills = append(ch.Fills, FillOp{Device: dev, Channels: want})
		}
	}

	if want, ok := e.Amps[dev]; ok {
		got, ok := st["enabled"].(bool)
		if !ok {
			return malformed(fmt.Errorf("state field \"enabled\" is %T, want a boolean", st["enabled"]))
		}
		if got != want {
			differs("amplifier enabled", got, want)
			ch.Amps = append(ch.Amps, AmpOp{Device: dev, Enable: want})
		}
	}
	return diff, nil
}

// The state readers take fields out of a device's "state" result as the
// controller's transport delivers it (wire.go: integer arrays are []int,
// boolean arrays []bool, objects map[string]any of float64). With repair
// they are the one place that knows that shape, and they reject anything
// else rather than coerce it: a wrongly typed element read as 0 or false
// would audit as a drained transceiver.

// stateCross returns an OSS state's cross-connect map, input port to
// output port.
func stateCross(st map[string]any) (map[int]int, error) {
	cross, ok := st["cross"].(map[string]any)
	if !ok {
		return nil, fmt.Errorf("state field \"cross\" is %T, want an object", st["cross"])
	}
	out := make(map[int]int, len(cross))
	for k, v := range cross {
		// The whole key must be the number in its one canonical spelling:
		// "1junk" is no port, and "01" beside "1" would be two entries for
		// one.
		in, err := strconv.Atoi(k)
		if err != nil || strconv.Itoa(in) != k {
			return nil, fmt.Errorf("state field \"cross\": bad port key %q", k)
		}
		p, ok := asInt(v)
		if !ok {
			return nil, fmt.Errorf("state field \"cross\": port %d maps to %v, want an integer", in, v)
		}
		out[in] = p
	}
	return out, nil
}

// stateInts returns an integer-array field of a device state.
func stateInts(st map[string]any, key string) ([]int, error) {
	switch v := st[key].(type) {
	case []int:
		return v, nil
	case []any:
		if len(v) == 0 {
			return nil, nil
		}
	}
	return nil, fmt.Errorf("state field %q is %T, want an array of integers", key, st[key])
}

// stateBools returns a boolean-array field of a device state.
func stateBools(st map[string]any, key string) ([]bool, error) {
	switch v := st[key].(type) {
	case []bool:
		return v, nil
	case []any:
		if len(v) == 0 {
			return nil, nil
		}
	}
	return nil, fmt.Errorf("state field %q is %T, want an array of booleans", key, st[key])
}
