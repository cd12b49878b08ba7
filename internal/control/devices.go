package control

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"time"
)

// wantsState reports whether a write's arguments ask for the state it
// leaves in its reply ("state": true).
func wantsState(args map[string]any) bool {
	on, _ := args["state"].(bool)
	return on
}

// OSS emulates an optical space switch: a port-to-port circuit fabric that
// directs all wavelengths of an input fiber to an output fiber. Switching
// takes the configured delay (the paper measures ≈20 ms, §5.2).
type OSS struct {
	mu          sync.Mutex
	ports       int
	switchDelay time.Duration
	cross       []int // in port -> out port, -1 when unconnected
	outInUse    []int // out port -> in port, -1 when idle
}

// NewOSS returns an OSS with the given port count and switch delay.
func NewOSS(ports int, switchDelay time.Duration) *OSS {
	o := &OSS{ports: ports, switchDelay: switchDelay, cross: make([]int, ports), outInUse: make([]int, ports)}
	for p := range o.cross {
		o.cross[p], o.outInUse[p] = -1, -1
	}
	return o
}

// Kind implements Device.
func (o *OSS) Kind() string { return "oss" }

// Handle implements Device. Operations:
//
//	switch-batch {disconnect, ins, outs}
//	        — tear down the circuits from the disconnect inputs, then create
//	          ins[i]→outs[i]; a connect may take a port the teardown
//	          vacated. Either list may be empty. All or nothing: it fails,
//	          changing nothing, if a disconnect names an idle input or one
//	          twice, or a connect a busy or out-of-range port
//	state   — circuits {in, out, ports}: input ports ascending
//
// A switch-batch whose arguments hold "state": true answers with the
// switch's state as the state op would, read under the lock hold that
// applied the batch; without it, and on failure, the reply carries none.
// There is no single-circuit form and no second switching command: real
// OSS firmware executes a set of cross-connect moves in a single
// mirror-settling window, so a reconfiguration pays the switching delay
// once per device, not once per circuit, and one circuit is a batch of
// one.
func (o *OSS) Handle(op string, args map[string]any) (map[string]any, error) {
	switch op {
	case "switch-batch":
		disconnect, err := argIntSlice(args, "disconnect")
		if err != nil {
			return nil, err
		}
		ins, err := argIntSlice(args, "ins")
		if err != nil {
			return nil, err
		}
		outs, err := argIntSlice(args, "outs")
		if err != nil {
			return nil, err
		}
		if len(ins) != len(outs) {
			return nil, fmt.Errorf("oss: batch length mismatch: %d ins, %d outs", len(ins), len(outs))
		}
		return o.switchBatch(disconnect, ins, outs, wantsState(args))
	case "state":
		o.mu.Lock()
		defer o.mu.Unlock()
		return o.stateLocked(), nil
	default:
		return nil, fmt.Errorf("oss: unknown op %q", op)
	}
}

// switchBatch applies a batch under the lock: it tears down the circuits
// from disconnect, then reserves every cross-connect, each checked against
// the state the entries before it left. On the first entry that fails it
// puts every circuit back as it was. With withState it returns the state
// the batch left, read before the lock is let go. A batch that connects
// something then settles once: the physical switch moves all mirrors in a
// single settling window.
func (o *OSS) switchBatch(disconnect, ins, outs []int, withState bool) (st map[string]any, err error) {
	o.mu.Lock()
	was := make([]int, len(disconnect)) // the output each torn-down circuit fed
	fail := func(torn, made int, err error) (map[string]any, error) {
		o.rollback(ins[:made])
		for i, in := range disconnect[:torn] {
			o.cross[in], o.outInUse[was[i]] = was[i], in
		}
		o.mu.Unlock()
		return nil, err
	}
	for i, in := range disconnect {
		if in < 0 || in >= o.ports || o.cross[in] < 0 {
			if slices.Contains(disconnect[:i], in) {
				return fail(i, 0, fmt.Errorf("oss: input %d named twice in one batch", in))
			}
			return fail(i, 0, fmt.Errorf("oss: input %d not connected", in))
		}
		was[i] = o.cross[in]
		o.cross[in], o.outInUse[was[i]] = -1, -1
	}
	for i := range ins {
		in, out := ins[i], outs[i]
		if in < 0 || in >= o.ports || out < 0 || out >= o.ports {
			return fail(len(disconnect), i, fmt.Errorf("oss: port out of range [0,%d): in=%d out=%d", o.ports, in, out))
		}
		if cur := o.cross[in]; cur >= 0 {
			return fail(len(disconnect), i, fmt.Errorf("oss: input %d already connected to %d", in, cur))
		}
		if cur := o.outInUse[out]; cur >= 0 {
			return fail(len(disconnect), i, fmt.Errorf("oss: output %d already fed by %d", out, cur))
		}
		o.cross[in] = out
		o.outInUse[out] = in
	}
	if withState {
		st = o.stateLocked()
	}
	o.mu.Unlock()
	if len(ins) > 0 {
		time.Sleep(o.switchDelay)
	}
	return st, nil
}

// rollback tears down the circuits from ins; callers hold o.mu.
func (o *OSS) rollback(ins []int) {
	for _, in := range ins {
		out := o.cross[in]
		o.cross[in], o.outInUse[out] = -1, -1
	}
}

// stateLocked is the switch's state, the reply of state and of a write
// asked for it; callers hold o.mu.
func (o *OSS) stateLocked() map[string]any {
	ins, outs := o.crossLocked()
	return map[string]any{"in": ins, "out": outs, "ports": o.ports}
}

// crossLocked returns the circuits: input ports ascending, and each
// one's output; callers hold o.mu.
func (o *OSS) crossLocked() (ins, outs []int) {
	ins, outs = make([]int, 0, o.ports/2), make([]int, 0, o.ports/2) // a circuit takes two ports
	for in, out := range o.cross {
		if out >= 0 {
			ins, outs = append(ins, in), append(outs, out)
		}
	}
	return ins, outs
}

// Amplifier emulates an EDFA run at fixed gain behind an input power
// limiter — Iris's no-online-management amplifier configuration (§5.1).
type Amplifier struct {
	mu      sync.Mutex
	gainDB  float64
	limitIn float64 // input power limit, dBm
	enabled bool
}

// NewAmplifier returns an amplifier with the given fixed gain and input
// power limit.
func NewAmplifier(gainDB, limitInDBm float64) *Amplifier {
	return &Amplifier{gainDB: gainDB, limitIn: limitInDBm}
}

// Kind implements Device.
func (a *Amplifier) Kind() string { return "amp" }

// Handle implements Device. Operations: enable, disable, and state —
// {gain_db, limit_dbm, enabled, fixed_gain}. An enable or disable whose
// arguments hold "state": true answers with the state it left, as the
// state op would.
func (a *Amplifier) Handle(op string, args map[string]any) (map[string]any, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch op {
	case "enable":
		a.enabled = true
	case "disable":
		a.enabled = false
	case "state":
		return a.stateLocked(), nil
	default:
		return nil, fmt.Errorf("amp: unknown op %q", op)
	}
	if wantsState(args) {
		return a.stateLocked(), nil
	}
	return nil, nil
}

// stateLocked is the amplifier's state; callers hold a.mu.
func (a *Amplifier) stateLocked() map[string]any {
	return map[string]any{
		"gain_db":    a.gainDB,
		"limit_dbm":  a.limitIn,
		"enabled":    a.enabled,
		"fixed_gain": true,
	}
}

// TransceiverBank emulates a DC's tunable transceivers (the T2-attached
// Acacia units of the testbed): each can be tuned to a wavelength index
// and enabled or disabled. Disabling is how the controller drains traffic
// from a circuit before switching it.
type TransceiverBank struct {
	mu      sync.Mutex
	lambda  int   // wavelengths per fiber
	tuned   []int // per transceiver: wavelength index, -1 if untuned
	enabled []bool
}

// NewTransceiverBank returns a bank of n transceivers supporting lambda
// wavelength slots.
func NewTransceiverBank(n, lambda int) *TransceiverBank {
	tuned := make([]int, n)
	for i := range tuned {
		tuned[i] = -1
	}
	return &TransceiverBank{lambda: lambda, tuned: tuned, enabled: make([]bool, n)}
}

// Kind implements Device.
func (b *TransceiverBank) Kind() string { return "transceivers" }

// Handle implements Device. Operations:
//
//	disable-batch {idxs}           — drain several transceivers
//	tune-batch {idxs, wavelengths} — retune several (sub-millisecond each)
//	enable-batch {idxs}            — undrain several
//	state                          — {tuned, enabled, lambda}, see packBank
//
// A batch whose arguments hold "state": true answers with the bank's state
// as the state op would, read under the lock hold that applied it. A
// batch is all-or-nothing: every entry is checked under the lock —
// index and wavelength in range, a transceiver disabled (drained) before
// it is retuned and tuned before it is enabled — and the bank changes
// only if all of them pass. There is no single-transceiver form, so a
// reconfiguration costs one round trip per bank per phase however many
// transceivers it touches.
func (b *TransceiverBank) Handle(op string, args map[string]any) (map[string]any, error) {
	switch op {
	case "tune-batch":
		idxs, err := argIntSlice(args, "idxs")
		if err != nil {
			return nil, err
		}
		ws, err := argIntSlice(args, "wavelengths")
		if err != nil {
			return nil, err
		}
		if len(idxs) != len(ws) {
			return nil, fmt.Errorf("transceivers: batch length mismatch: %d idxs, %d wavelengths", len(idxs), len(ws))
		}
		return b.tuneBatch(idxs, ws, wantsState(args))
	case "enable-batch", "disable-batch":
		idxs, err := argIntSlice(args, "idxs")
		if err != nil {
			return nil, err
		}
		return b.setEnabledBatch(idxs, op == "enable-batch", wantsState(args))
	case "state":
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.stateLocked(), nil
	default:
		return nil, fmt.Errorf("transceivers: unknown op %q", op)
	}
}

// tuneBatch and setEnabledBatch apply a batch under the lock and, with
// withState, return the state it left.
func (b *TransceiverBank) tuneBatch(idxs, ws []int, withState bool) (map[string]any, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, idx := range idxs {
		if idx < 0 || idx >= len(b.tuned) {
			return nil, fmt.Errorf("transceivers: index %d out of range [0,%d)", idx, len(b.tuned))
		}
		if w := ws[i]; w < -1 || w >= b.lambda {
			return nil, fmt.Errorf("transceivers: wavelength %d out of range [-1,%d)", w, b.lambda)
		}
		if b.enabled[idx] {
			return nil, fmt.Errorf("transceivers: %d must be disabled (drained) before retuning", idx)
		}
	}
	for i, idx := range idxs {
		b.tuned[idx] = ws[i]
	}
	return b.stateIf(withState), nil
}

func (b *TransceiverBank) setEnabledBatch(idxs []int, on, withState bool) (map[string]any, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, idx := range idxs {
		if idx < 0 || idx >= len(b.enabled) {
			return nil, fmt.Errorf("transceivers: index %d out of range [0,%d)", idx, len(b.enabled))
		}
		if on && b.tuned[idx] < 0 {
			return nil, fmt.Errorf("transceivers: %d cannot enable while untuned", idx)
		}
	}
	for _, idx := range idxs {
		b.enabled[idx] = on
	}
	return b.stateIf(withState), nil
}

// stateLocked is the bank's state, packed; callers hold b.mu.
func (b *TransceiverBank) stateLocked() map[string]any {
	tuned, enabled := packBank(b.tuned, b.enabled, b.lambda)
	return map[string]any{"tuned": tuned, "enabled": enabled, "lambda": b.lambda}
}

// stateIf is stateLocked when a write asked for it, else nil.
func (b *TransceiverBank) stateIf(withState bool) map[string]any {
	if !withState {
		return nil
	}
	return b.stateLocked()
}

const hexDigits = "0123456789abcdef"

// tunedWidth is the number of hex digits that hold every wavelength plus
// one of a bank with lambda slots: those of lambda itself.
func tunedWidth(lambda int) int { return (bits.Len(uint(lambda)) + 3) / 4 }

// packBank packs a bank's state, so 400 transceivers are 900 bytes the
// codec copies, not 800 JSON elements it parses: tunedWidth(lambda) hex
// digits per transceiver holding its wavelength plus one (zero: untuned),
// and one hex digit per four transceivers, the first of the four in the
// high bit, the bits past the last zero. Expected.repair is the reader.
func packBank(tuned []int, enabled []bool, lambda int) (string, string) {
	width := tunedWidth(lambda)
	buf := make([]byte, 0, width*len(tuned)+(len(enabled)+3)/4)
	for _, w := range tuned {
		for shift := 4 * (width - 1); shift >= 0; shift -= 4 {
			buf = append(buf, hexDigits[(w+1)>>shift&15])
		}
	}
	for i := 0; i < len(enabled); i += 4 {
		digit := 0
		for j, on := range enabled[i:min(i+4, len(enabled))] {
			if on {
				digit |= 8 >> j
			}
		}
		buf = append(buf, hexDigits[digit])
	}
	both := string(buf)
	return both[:width*len(tuned)], both[width*len(tuned):]
}
