package control

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"time"
)

// LogEntry records one operation executed by a device, for audits and for
// verifying controller sequencing in tests.
type LogEntry struct {
	Time time.Time
	Op   string
	Note string
}

// logCap is how many operations a device remembers. A device runs for as
// long as the daemon does, so its log is a ring: a dense tick writes three
// entries per bank and two per OSS, which makes this the last forty-odd
// ticks.
const logCap = 128

// logRec is one remembered operation with its operands as the device
// received them; the note is formatted when the log is read, not while
// the operation runs.
type logRec struct {
	at   time.Time
	op   string
	a, b []int
}

func (r logRec) note() string {
	switch {
	case r.a == nil:
		return ""
	case r.b == nil:
		return fmt.Sprint(r.a)
	default: // ports in -> out, or transceivers -> wavelengths
		return fmt.Sprintf("%v->%v", r.a, r.b)
	}
}

// opLog is the shared audit-trail implementation embedded in every device.
type opLog struct {
	mu   sync.Mutex
	ring []logRec // grows to logCap, then the oldest entry is overwritten
	n    int      // operations recorded since the device started
}

// record remembers one operation. The operand slices are retained, not
// copied: callers pass slices nothing modifies afterwards.
func (l *opLog) record(op string, a, b []int) {
	rec := logRec{at: time.Now(), op: op, a: a, b: b}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ring) < logCap {
		l.ring = append(l.ring, rec)
	} else {
		l.ring[l.n%logCap] = rec
	}
	l.n++
}

// Log returns the device's last logCap operations, oldest first.
func (l *opLog) Log() []LogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]LogEntry, len(l.ring))
	oldest := l.n - len(l.ring) // operation k sits in slot k % logCap
	for i := range out {
		r := l.ring[(oldest+i)%logCap]
		out[i] = LogEntry{Time: r.at, Op: r.op, Note: r.note()}
	}
	return out
}

// OSS emulates an optical space switch: a port-to-port circuit fabric that
// directs all wavelengths of an input fiber to an output fiber. Switching
// takes the configured delay (the paper measures ≈20 ms, §5.2).
type OSS struct {
	opLog
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
//	connect-batch {ins, outs} — create circuits in one settling window; fails
//	                            if any port is in use
//	disconnect-batch {ins}    — tear down the circuits from the input ports;
//	                            fails, changing nothing, if any is idle or
//	                            named twice
//	state                     — circuits {in, out}: input ports ascending
//
// There is no single-circuit form: real OSS firmware executes a set of
// cross-connect moves in a single mirror-settling window, so a
// multi-circuit reconfiguration pays the switching delay once per device,
// not once per circuit, and one circuit is a batch of one.
func (o *OSS) Handle(op string, args map[string]any) (map[string]any, error) {
	switch op {
	case "connect-batch":
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
		if err := o.connectBatch(ins, outs); err != nil {
			return nil, err
		}
		o.record(op, ins, outs)
		return nil, nil
	case "disconnect-batch":
		ins, err := argIntSlice(args, "ins")
		if err != nil {
			return nil, err
		}
		if err := o.disconnectBatch(ins); err != nil {
			return nil, err
		}
		o.record(op, ins, nil)
		return nil, nil
	case "state":
		ins, outs := o.Cross()
		return map[string]any{"in": ins, "out": outs, "ports": o.ports}, nil
	default:
		return nil, fmt.Errorf("oss: unknown op %q", op)
	}
}

// connectBatch validates and reserves every cross-connect under the lock,
// then settles once: the physical switch moves all mirrors in a single
// settling window.
func (o *OSS) connectBatch(ins, outs []int) error {
	o.mu.Lock()
	for i := range ins {
		in, out := ins[i], outs[i]
		if in < 0 || in >= o.ports || out < 0 || out >= o.ports {
			o.rollback(ins[:i])
			o.mu.Unlock()
			return fmt.Errorf("oss: port out of range [0,%d): in=%d out=%d", o.ports, in, out)
		}
		if cur := o.cross[in]; cur >= 0 {
			o.rollback(ins[:i])
			o.mu.Unlock()
			return fmt.Errorf("oss: input %d already connected to %d", in, cur)
		}
		if cur := o.outInUse[out]; cur >= 0 {
			o.rollback(ins[:i])
			o.mu.Unlock()
			return fmt.Errorf("oss: output %d already fed by %d", out, cur)
		}
		o.cross[in] = out
		o.outInUse[out] = in
	}
	o.mu.Unlock()
	time.Sleep(o.switchDelay)
	return nil
}

// rollback tears down the circuits from ins; callers hold o.mu.
func (o *OSS) rollback(ins []int) {
	for _, in := range ins {
		out := o.cross[in]
		o.cross[in], o.outInUse[out] = -1, -1
	}
}

// disconnectBatch checks every input under the lock before it tears down
// any circuit.
func (o *OSS) disconnectBatch(ins []int) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, in := range ins {
		if in < 0 || in >= o.ports || o.cross[in] < 0 {
			return fmt.Errorf("oss: input %d not connected", in)
		}
		if slices.Contains(ins[:i], in) {
			return fmt.Errorf("oss: input %d named twice in one batch", in)
		}
	}
	o.rollback(ins)
	return nil
}

// Cross returns the circuits: input ports ascending, and each one's output.
func (o *OSS) Cross() (ins, outs []int) {
	o.mu.Lock()
	defer o.mu.Unlock()
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
	opLog
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

// Handle implements Device. Operations: enable, disable, state.
func (a *Amplifier) Handle(op string, args map[string]any) (map[string]any, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch op {
	case "enable":
		a.enabled = true
	case "disable":
		a.enabled = false
	case "state":
		return map[string]any{
			"gain_db":    a.gainDB,
			"limit_dbm":  a.limitIn,
			"enabled":    a.enabled,
			"fixed_gain": true,
		}, nil
	default:
		return nil, fmt.Errorf("amp: unknown op %q", op)
	}
	a.record(op, nil, nil)
	return nil, nil
}

// Enabled reports whether the amplifier is active.
func (a *Amplifier) Enabled() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.enabled
}

// TransceiverBank emulates a DC's tunable transceivers (the T2-attached
// Acacia units of the testbed): each can be tuned to a wavelength index
// and enabled or disabled. Disabling is how the controller drains traffic
// from a circuit before switching it.
type TransceiverBank struct {
	opLog
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
// A batch is all-or-nothing: every entry is checked under the lock —
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
		if err := b.tuneBatch(idxs, ws); err != nil {
			return nil, err
		}
		b.record(op, idxs, ws)
		return nil, nil
	case "enable-batch", "disable-batch":
		idxs, err := argIntSlice(args, "idxs")
		if err != nil {
			return nil, err
		}
		if err := b.setEnabledBatch(idxs, op == "enable-batch"); err != nil {
			return nil, err
		}
		b.record(op, idxs, nil)
		return nil, nil
	case "state":
		b.mu.Lock()
		defer b.mu.Unlock()
		tuned, enabled := packBank(b.tuned, b.enabled, b.lambda)
		return map[string]any{"tuned": tuned, "enabled": enabled, "lambda": b.lambda}, nil
	default:
		return nil, fmt.Errorf("transceivers: unknown op %q", op)
	}
}

func (b *TransceiverBank) tuneBatch(idxs, ws []int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, idx := range idxs {
		if idx < 0 || idx >= len(b.tuned) {
			return fmt.Errorf("transceivers: index %d out of range [0,%d)", idx, len(b.tuned))
		}
		if w := ws[i]; w < -1 || w >= b.lambda {
			return fmt.Errorf("transceivers: wavelength %d out of range [-1,%d)", w, b.lambda)
		}
		if b.enabled[idx] {
			return fmt.Errorf("transceivers: %d must be disabled (drained) before retuning", idx)
		}
	}
	for i, idx := range idxs {
		b.tuned[idx] = ws[i]
	}
	return nil
}

func (b *TransceiverBank) setEnabledBatch(idxs []int, on bool) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, idx := range idxs {
		if idx < 0 || idx >= len(b.enabled) {
			return fmt.Errorf("transceivers: index %d out of range [0,%d)", idx, len(b.enabled))
		}
		if on && b.tuned[idx] < 0 {
			return fmt.Errorf("transceivers: %d cannot enable while untuned", idx)
		}
	}
	for _, idx := range idxs {
		b.enabled[idx] = on
	}
	return nil
}

// Snapshot returns (tuned wavelength, enabled) for each transceiver.
func (b *TransceiverBank) Snapshot() ([]int, []bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]int(nil), b.tuned...), append([]bool(nil), b.enabled...)
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

// ChannelEmulator emulates the ASE-noise channel filler of §5.1: it keeps
// the unused portion of the C-band spectrum occupied so amplifier gain
// profiles stay uniform without online power management.
type ChannelEmulator struct {
	opLog
	mu     sync.Mutex
	lambda int
	filled map[int]bool
}

// NewChannelEmulator returns an emulator for lambda wavelength slots.
func NewChannelEmulator(lambda int) *ChannelEmulator {
	return &ChannelEmulator{lambda: lambda, filled: make(map[int]bool)}
}

// Kind implements Device.
func (e *ChannelEmulator) Kind() string { return "emulator" }

// Handle implements Device. Operations:
//
//	fill {channels} — set exactly the given channels to carry ASE noise
//	state
func (e *ChannelEmulator) Handle(op string, args map[string]any) (map[string]any, error) {
	switch op {
	case "fill":
		chans, err := argIntSlice(args, "channels")
		if err != nil {
			return nil, err
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		for _, c := range chans {
			if c < 0 || c >= e.lambda {
				return nil, fmt.Errorf("emulator: channel %d out of range [0,%d)", c, e.lambda)
			}
		}
		e.filled = make(map[int]bool, len(chans))
		for _, c := range chans {
			e.filled[c] = true
		}
		e.record(op, chans, nil)
		return nil, nil
	case "state":
		return map[string]any{"filled": e.Filled(), "lambda": e.lambda}, nil
	default:
		return nil, fmt.Errorf("emulator: unknown op %q", op)
	}
}

// Filled returns the currently ASE-filled channels in ascending order.
func (e *ChannelEmulator) Filled() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []int
	for c := 0; c < e.lambda; c++ {
		if e.filled[c] {
			out = append(out, c)
		}
	}
	return out
}
