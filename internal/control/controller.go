package control

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"time"

	"iris/internal/trace"
)

// deviceSpec names one device agent and the listener it serves on.
type deviceSpec struct {
	Name string
	Addr net.Addr
}

// Controller is the centralized Iris controller (§5.2). It holds one
// connection per device and executes reconfigurations as strictly ordered
// phases: drain traffic, switch fibers, set amplifiers, retune
// wavelengths, then undrain.
type Controller struct {
	mu      sync.Mutex
	devices map[string]*client
	names   []string // the keys of devices, sorted once at dial
}

// DialOptions configures the controller's per-device transports. Zero
// values select the package defaults.
type DialOptions struct {
	DialTimeout time.Duration // connection establishment bound
	RPCTimeout  time.Duration // end-to-end bound per device call
}

// dialWithOptions connects to all device agents. On any failure it closes
// the connections already made and returns the error.
func dialWithOptions(specs []deviceSpec, opts DialOptions) (*Controller, error) {
	c := &Controller{devices: make(map[string]*client, len(specs))}
	for _, s := range specs {
		if _, dup := c.devices[s.Name]; dup {
			c.shutdown()
			return nil, fmt.Errorf("control: duplicate device name %q", s.Name)
		}
		cl, err := dialDeviceTimeout(s.Addr, opts.DialTimeout, opts.RPCTimeout)
		if err != nil {
			c.shutdown()
			return nil, err
		}
		c.devices[s.Name] = cl
	}
	c.names = sortedKeys(c.devices)
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

// shutdown tears down all device connections.
func (c *Controller) shutdown() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cl := range c.devices {
		cl.Close()
	}
	c.devices, c.names = nil, nil
}

// Call forwards one operation to a named device.
func (c *Controller) Call(device, op string, args map[string]any) (map[string]any, error) {
	cl, err := c.send(device, op, args, time.Now())
	if err != nil {
		return nil, err
	}
	res, err := cl.recv()
	if err != nil {
		err = &DeviceError{Device: device, Err: err}
	}
	return res, err
}

// send puts one request to a named device on the wire, its deadline
// running from sent, and returns the device's client, which stays locked
// until recv or Client.abandon.
func (c *Controller) send(device, op string, args map[string]any, sent time.Time) (*client, error) {
	c.mu.Lock()
	cl, ok := c.devices[device]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("control: unknown device %q", device)
	}
	if err := cl.send(op, args, sent); err != nil {
		return nil, &DeviceError{Device: device, Err: err}
	}
	return cl, nil
}

// finishRPC closes a device RPC's span with its outcome.
func finishRPC(sp *trace.Span, err error) {
	if err != nil {
		sp.Fail(err)
		if isDeadline(err) {
			sp.SetAttr("deadline_exceeded")
		}
	}
	sp.Finish()
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

// Devices returns the connected device names in sorted order. The set is
// fixed when the controller dials, so every call returns the one slice
// sorted then; callers must not modify it.
func (c *Controller) Devices() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.names
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

// FillOp would set a §5.1 channel emulator's ASE-filled channels. ASE
// fill is out of scope (DESIGN §2): no device takes it, nothing sets
// Change.Fills and Reconfigure ignores it. Both stay only because bench/
// reads len(Fills); they go with ROADMAP item 17(b).
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
// OSS operations network-wide, then the per-DC wavelength retunes, and
// finally re-enables the undrain set.
type Change struct {
	Drain    []TransceiverOp
	Switches []OSSOp
	// Amps run after the switches and before traffic returns: an
	// amplifier must be providing gain before its path goes live, and
	// unused amplifiers are parked to keep ASE out of dark fibers.
	Amps    []AmpOp
	Retunes []TransceiverOp
	Fills   []FillOp // always empty, see FillOp
	Undrain []TransceiverOp
}

// Devices returns every device the change names, sorted: the devices it
// can have moved, and so the ones whose last write's reply (Report.States)
// the audit that closes it compares with intent.
func (ch Change) Devices() []string {
	seen := make(map[string]bool)
	for _, ops := range [][]TransceiverOp{ch.Drain, ch.Retunes, ch.Undrain} {
		for _, o := range ops {
			seen[o.Device] = true
		}
	}
	for _, o := range ch.Switches {
		seen[o.Device] = true
	}
	for _, o := range ch.Amps {
		seen[o.Device] = true
	}
	return sortedKeys(seen)
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
	// States holds, for each device the change named, the reply to the
	// batch of its last phase: the state the change left it in, in the
	// shape the "state" op returns (nil if the reply carried none).
	States map[string]map[string]any
}

// Reconfigure executes the change. Phases run strictly in order; a phase
// is one round of RPCs, in which each device the phase names receives its
// operations as one batch and all of them work at once. The batch of a
// device's last phase asks for the state it leaves ("state": true), and
// the replies are the Report's States: a device's last write is also the
// read of the state the change left it in. The first error stops the
// phase's round and aborts the phases after it. Unless ctx was cancelled,
// every request the change sent has been answered when Reconfigure
// returns, so the devices stay as the error left them; the ones behind the
// failing device may have applied their batch. Report counts operations,
// not RPCs.
//
// When ctx carries a span (trace.ContextWith — the daemon threads its
// reconfig root through here), each phase becomes a child span with
// per-device children, so the flight recorder captures the §5.2 sequence
// drain → switch → amps → retune → undrain with per-device
// durations and deadline outcomes.
func (c *Controller) Reconfigure(ctx context.Context, ch Change) (Report, error) {
	rep := Report{States: make(map[string]map[string]any)}
	start := time.Now()
	parent := trace.FromContext(ctx)
	phases := []struct {
		name string
		reqs map[string]request
		ops  int
	}{
		{"drain", transceiverReqs(ch.Drain, "disable-batch"), len(ch.Drain)},
		{"switch", switchReqs(ch.Switches), len(ch.Switches)},
		{"amps", ampReqs(ch.Amps), len(ch.Amps)},
		{"retune", transceiverReqs(ch.Retunes, "tune-batch"), len(ch.Retunes)},
		{"undrain", transceiverReqs(ch.Undrain, "enable-batch"), len(ch.Undrain)},
	}
	last := make(map[string]int) // device → index of its last phase
	for i := len(phases) - 1; i >= 0; i-- {
		for dev, req := range phases[i].reqs {
			if _, later := last[dev]; later {
				continue
			}
			last[dev] = i
			if req.args == nil {
				req.args = make(map[string]any, 1)
				phases[i].reqs[dev] = req
			}
			req.args["state"] = true
		}
	}
	for i, ph := range phases {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		sp := parent.Child(ph.name)
		t0 := time.Now()
		err := c.round(ctx, sp, ph.reqs, func(dev string, res map[string]any) error {
			if last[dev] == i {
				rep.States[dev] = res
			}
			return nil
		})
		if err != nil {
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

// request is one device's share of a round: the operation, its arguments
// and the name of the span it runs under.
type request struct {
	span, op string
	args     map[string]any
}

// round is the one way the controller holds requests in flight on more
// than one device; the audit, the repair and every phase of a change go
// through it. Every request is on the wire, in sorted device order, before
// the first reply is awaited: the devices work while the controller reads
// (three switches settle in one settling time), and every request's RPC
// deadline runs from one instant taken before the first send: the round
// has one deadline, and once it has run out for a device it has for every
// device behind it: the clock is read before each reply (recvBy), since a
// connection's own deadline waits on its timer. Replies are read in the
// same order and handed to visit, if there is one. The first failed reply (a
// *DeviceError naming its device) or a failed visit stops the round: the
// replies still to come are read and discarded, so when round returns no
// request it sent is in flight and no device applies one of them later
// (short of a device past its deadline, given up as any timed-out call
// is). Only a cancelled ctx abandons the requests still in flight — a
// device may then apply one after round returns, which is what the next
// repair's fresh fetch is for. Each request is a child span of parent,
// attributed to its device.
//
// A client stays locked from send to recv, so a second request to a device
// would wait for ever on the first one's lock: reqs is keyed by device
// because a round names a device at most once. Every round takes the
// clients in the same order, so two of them cannot deadlock.
func (c *Controller) round(ctx context.Context, parent *trace.Span, reqs map[string]request, visit func(dev string, res map[string]any) error) (stop error) {
	if err := ctx.Err(); err != nil {
		return err // nothing goes on the wire for a caller that has given up
	}
	devs := sortedKeys(reqs)
	sent := time.Now()
	spans := make([]*trace.Span, len(devs))
	clients := make([]*client, len(devs)) // each holding a request in flight
	errs := make([]error, len(devs))      // or why there is none
	for i, dev := range devs {
		req := reqs[dev]
		spans[i] = parent.Child(req.span)
		spans[i].SetDevice(dev)
		clients[i], errs[i] = c.send(dev, req.op, req.args, sent)
	}
	for i, dev := range devs {
		if err := ctx.Err(); err != nil {
			if stop == nil {
				stop = err
			}
			if clients[i] != nil {
				clients[i].abandon()
			}
			spans[i].SetAttr("abandoned")
			spans[i].Finish()
			continue
		}
		var res map[string]any
		err := errs[i]
		if err == nil {
			if res, err = clients[i].recvBy(sent); err != nil {
				err = &DeviceError{Device: dev, Err: err}
			}
		}
		if stop != nil {
			spans[i].SetAttr("discarded")
			finishRPC(spans[i], err)
			continue
		}
		finishRPC(spans[i], err)
		if stop = err; stop == nil && visit != nil {
			stop = visit(dev, res)
		}
	}
	return stop
}

// transceiverReqs batches one phase's per-transceiver operations (op is
// "disable-batch", "tune-batch" or "enable-batch") into one request per
// bank, which a bank applies only if every entry passes its checks. A
// bank's span is named after the phase's operation ("tune").
func transceiverReqs(ops []TransceiverOp, op string) map[string]request {
	tune := op == "tune-batch"
	type batch struct {
		n                 int
		idxs, wavelengths []int
	}
	byDev := make(map[string]*batch)
	for _, o := range ops {
		b := byDev[o.Device]
		if b == nil {
			b = new(batch)
			byDev[o.Device] = b
		}
		b.n++
	}
	for _, o := range ops { // each list allocated once, at its length
		b := byDev[o.Device]
		if b.idxs == nil {
			b.idxs = make([]int, 0, b.n)
			if tune {
				b.wavelengths = make([]int, 0, b.n)
			}
		}
		b.idxs = append(b.idxs, o.Idx)
		if tune {
			b.wavelengths = append(b.wavelengths, o.Wavelength)
		}
	}
	reqs := make(map[string]request, len(byDev))
	for dev, b := range byDev {
		args := map[string]any{"idxs": b.idxs}
		if tune {
			args["wavelengths"] = b.wavelengths
		}
		reqs[dev] = request{span: strings.TrimSuffix(op, "-batch"), op: op, args: args}
	}
	return reqs
}

// switchReqs batches the OSS operations into one request per switch: a
// batch of its disconnects and connects, which it applies only if every
// entry passes — disconnects first, so a circuit can move to a port
// vacated in the same change — and settles in one window. Switches share
// no ports, so no switch waits for another's teardown.
func switchReqs(ops []OSSOp) map[string]request {
	type batch struct {
		n                     int
		disconnect, ins, outs []int
	}
	byDev := make(map[string]*batch)
	for _, o := range ops {
		b := byDev[o.Device]
		if b == nil {
			b = new(batch)
			byDev[o.Device] = b
		}
		b.n++
	}
	for _, o := range ops { // each list allocated once, long enough for all
		b := byDev[o.Device]
		if b.ins == nil {
			b.disconnect, b.ins, b.outs = make([]int, 0, b.n), make([]int, 0, b.n), make([]int, 0, b.n)
		}
		if o.Disconnect {
			b.disconnect = append(b.disconnect, o.In)
		} else {
			b.ins, b.outs = append(b.ins, o.In), append(b.outs, o.Out)
		}
	}
	reqs := make(map[string]request, len(byDev))
	for dev, b := range byDev {
		reqs[dev] = request{span: "switch-batch", op: "switch-batch",
			args: map[string]any{"disconnect": b.disconnect, "ins": b.ins, "outs": b.outs}}
	}
	return reqs
}

// ampReqs switches amplifier groups on or off. Of several operations
// naming one device the last decides: a change that parks an amplifier with
// the last circuit it tears down and lights it for the first it establishes
// must leave it on.
func ampReqs(ops []AmpOp) map[string]request {
	reqs := make(map[string]request)
	for _, o := range ops {
		op := "disable"
		if o.Enable {
			op = "enable"
		}
		reqs[o.Device] = request{span: op, op: op}
	}
	return reqs
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
	// Amps maps amplifier device name to whether it must provide gain.
	Amps map[string]bool
}

// devices returns every device the expectation names, sorted.
func (e Expected) devices() []string {
	seen := make(map[string]bool, len(e.Cross)+len(e.Enabled)+len(e.Amps))
	named(seen, e.Cross)
	named(seen, e.Tuned)
	named(seen, e.Enabled)
	named(seen, e.Amps)
	return sortedKeys(seen)
}

func named[V any](seen map[string]bool, field map[string]V) {
	for dev := range field {
		seen[dev] = true
	}
}

// eachState is the one fetch behind the audit and the repair: a round of
// "state" requests to every device the expectation names, each reply handed
// to visit — in sorted order, while the devices behind it still answer —
// until a fetch or a visit fails. When ctx carries a span every fetch is a
// per-device "state" child of it.
func (c *Controller) eachState(ctx context.Context, exp Expected, visit func(dev string, st map[string]any) error) error {
	devs := exp.devices()
	reqs := make(map[string]request, len(devs))
	for _, dev := range devs {
		reqs[dev] = request{span: "state", op: "state"}
	}
	return c.round(ctx, trace.FromContext(ctx), reqs, visit)
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
	return c.eachState(ctx, exp, exp.Check)
}

// Check is the audit's verdict on one device's state (st as
// Controller.Call returns it): nil when its repair is empty, a
// *DeviceError when the state is not well formed, else a mismatch error
// naming the device, the field and the first element that differs. A
// device the expectation does not name passes.
func (e Expected) Check(dev string, st map[string]any) error {
	var ch Change
	diff, err := e.repair(&ch, dev, st)
	if err == nil && diff != "" {
		err = fmt.Errorf("control: audit %s: %s", dev, diff)
	}
	return err
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
// Reconfigure runs the change in the usual order: drains, switches
// (disconnects before connects on each switch), amplifiers, retunes,
// undrains.
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
// expectation holds for it and describes the first element that differed
// and how many do: diff is "" exactly when nothing was appended. The state
// is read where it lies (a bank's packed digits, a switch's circuits in
// port order) and nothing is built for a device that matches. A state not
// well formed, or of a bank of another size than intent's, is a *DeviceError.
func (e Expected) repair(ch *Change, dev string, st map[string]any) (diff string, err error) {
	differing := 0
	differs := func(format string, args ...any) {
		if differing++; differing == 1 {
			diff = fmt.Sprintf(format, args...)
		}
	}
	malformed := func(err error) (string, error) {
		return "", &DeviceError{Device: dev, Err: err}
	}

	if want, ok := e.Cross[dev]; ok {
		ins, outs, err := stateCross(st)
		if err != nil {
			return malformed(err)
		}
		matched := 0
		for i, in := range ins {
			switch out, ok := want[in]; {
			case !ok:
				differs("cross map: port %d → %d, want none", in, outs[i])
			case out != outs[i]:
				differs("cross map: port %d → %d, want %d", in, outs[i], out)
			default:
				matched++
				continue
			}
			ch.Switches = append(ch.Switches, OSSOp{Device: dev, In: in, Disconnect: true})
		}
		if matched < len(want) { // a wanted circuit is missing or on another port
			for _, in := range sortedKeys(want) {
				i, ok := slices.BinarySearch(ins, in)
				if !ok {
					differs("cross map: port %d → none, want %d", in, want[in])
				}
				if !ok || outs[i] != want[in] {
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
		bank, err := stateBank(st)
		if err != nil {
			return malformed(err)
		}
		if (hasTuned && len(wantTuned) != bank.n) || (hasLive && len(wantLive) != bank.n) {
			return malformed(fmt.Errorf("bank of %d, intent has %d tuned and %d enabled", bank.n, len(wantTuned), len(wantLive)))
		}
		for idx := 0; idx < bank.n; idx++ {
			tuned, live, ok := bank.at(idx)
			if !ok {
				return malformed(fmt.Errorf("state of transceiver %d is not lower-case hex digits", idx))
			}
			wantW, wantOn := tuned, live
			if hasTuned {
				wantW = wantTuned[idx]
			}
			if hasLive {
				wantOn = wantLive[idx]
			}
			onWavelength := tuned == wantW
			switch {
			case !onWavelength:
				differs("tuned[%d] %d, want %d", idx, tuned, wantW)
			case live != wantOn:
				differs("enabled[%d] %t, want %t", idx, live, wantOn)
			default:
				continue
			}
			op := TransceiverOp{Device: dev, Idx: idx}
			if live {
				ch.Drain = append(ch.Drain, op)
			}
			if wantOn || !onWavelength {
				ch.Retunes = append(ch.Retunes, TransceiverOp{Device: dev, Idx: idx, Wavelength: wantW})
			}
			if wantOn {
				ch.Undrain = append(ch.Undrain, op)
			}
		}
	}

	if want, ok := e.Amps[dev]; ok {
		got, ok := st["enabled"].(bool)
		if !ok {
			return malformed(fmt.Errorf("state field \"enabled\" is %T, want a boolean", st["enabled"]))
		}
		if got != want {
			differs("amplifier enabled %t, want %t", got, want)
			ch.Amps = append(ch.Amps, AmpOp{Device: dev, Enable: want})
		}
	}
	if differing > 1 {
		diff = fmt.Sprintf("%s (first of %d differences)", diff, differing)
	}
	return diff, nil
}

// The state readers take fields out of a device's "state" result as the
// controller's transport delivers it (wire.go: integer arrays are []int,
// scalar numbers float64). With repair they are the one place that knows
// that shape, and they reject anything else rather than coerce it: a
// wrongly typed element read as 0 or false would audit as a drained
// transceiver.

// stateCross returns an OSS state's circuits: input ports, strictly
// ascending, and the output port of each.
func stateCross(st map[string]any) (ins, outs []int, err error) {
	if ins, err = stateInts(st, "in"); err == nil {
		outs, err = stateInts(st, "out")
	}
	if err == nil && len(ins) != len(outs) {
		err = fmt.Errorf("switch reports %d input and %d output ports", len(ins), len(outs))
	}
	for i := 1; err == nil && i < len(ins); i++ {
		if ins[i-1] >= ins[i] {
			err = fmt.Errorf("state field \"in\": port %d follows port %d", ins[i], ins[i-1])
		}
	}
	return ins, outs, err
}

// bankState is a transceiver bank's state, still packed (packBank).
type bankState struct {
	tuned, enabled string
	width, n       int // digits per wavelength, transceivers
}

// stateBank checks a bank state's fields and that their lengths describe
// one bank; the digits are checked as at reads them.
func stateBank(st map[string]any) (b bankState, err error) {
	var isTuned, isEnabled bool
	b.tuned, isTuned = st["tuned"].(string)
	b.enabled, isEnabled = st["enabled"].(string)
	lambda, isLambda := asInt(st["lambda"])
	if !isTuned || !isEnabled || !isLambda || lambda < 1 {
		return b, fmt.Errorf("bank state has tuned %T, enabled %T, lambda %v", st["tuned"], st["enabled"], st["lambda"])
	}
	b.width = tunedWidth(lambda)
	b.n = len(b.tuned) / b.width
	if len(b.tuned)%b.width != 0 || len(b.enabled) != (b.n+3)/4 {
		return b, fmt.Errorf("bank reports %d tuned digits, %d each, and %d enabled", len(b.tuned), b.width, len(b.enabled))
	}
	if b.n%4 != 0 && max(unhex(b.enabled[len(b.enabled)-1]), 0)&(15>>(b.n%4)) != 0 { // no digit at all: at says so
		return b, fmt.Errorf("bank of %d reports a transceiver past its last enabled", b.n)
	}
	return b, nil
}

// at returns transceiver idx's wavelength (-1: untuned) and whether it is
// live; ok is false when one of its digits is not lower-case hex.
func (b *bankState) at(idx int) (tuned int, live, ok bool) {
	for _, c := range []byte(b.tuned[idx*b.width : (idx+1)*b.width]) {
		tuned = tuned<<4 | unhex(c) // once -1 is or-ed in, tuned stays negative
	}
	digit := unhex(b.enabled[idx/4])
	return tuned - 1, digit&(8>>(idx%4)) != 0, tuned|digit >= 0
}

// unhex returns a lower-case hex digit's value, -1 for any other byte.
func unhex(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	}
	return -1
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
