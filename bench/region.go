package main

import (
	"fmt"
	"sync/atomic"

	"iris/internal/control"
	"iris/internal/core"
	"iris/internal/daemon"
	"iris/internal/fabric"
	"iris/internal/history"
	"iris/internal/traffic"
)

// Region shape shared by the tick, API and plan workloads (the paper's
// evaluation scale): 20 DCs of 10 fiber-pairs × 40 wavelengths.
const (
	regionDCs      = 20
	regionCapacity = 10
	regionLambda   = 40
)

// mapSeed fixes the region every run measures: its fiber map, DC
// placement and base demand matrix. The --seed argument drives what
// happens on that region (feed draws, request rotation, sampled cuts).
// A seed-derived map was tried first: tick cost then differs by a third
// between seeds, which no regression bound could resolve.
const mapSeed = 1

// rpcShim counts device RPCs as the devices see them. It is installed
// through fabric.BringUpConfig.WrapDevice on the traced run only.
type rpcShim struct{ n atomic.Int64 }

type countedDevice struct {
	control.Device
	n *atomic.Int64
}

func (d countedDevice) Handle(op string, args map[string]any) (map[string]any, error) {
	d.n.Add(1)
	return d.Device.Handle(op, args)
}

func (s *rpcShim) wrap(_ string, dev control.Device) control.Device {
	return countedDevice{Device: dev, n: &s.n}
}

// feedKind selects which stationary feed drives a region.
type feedKind int

const (
	feedDense feedKind = iota
	feedSparse
)

// region is one live region assembled the way irisd assembles it —
// fabric.BringUp, history.New, daemon.New — with tracing and the
// flow-impact monitor off and a feed the benchmark generates.
type region struct {
	rig  *fabric.Rig
	lake *history.Lake
	d    *daemon.Daemon
	feed traffic.Source
	base *traffic.Matrix
	shim *rpcShim // nil unless counting
}

// bringUp builds the rig, lake and feed. With a recorder the bring-up is
// replayed layer by layer under spans and no daemon is built: the traced
// tick replay drives the layers itself.
func bringUp(seed int64, kind feedKind, shim *rpcShim, rec *recorder) (*region, error) {
	cfg := fabric.BringUpConfig{Seed: mapSeed, DCs: regionDCs, DCCapacity: regionCapacity, Lambda: regionLambda}
	if shim != nil {
		cfg.WrapDevice = shim.wrap
	}
	var (
		rig *fabric.Rig
		err error
	)
	if rec == nil {
		rig, err = fabric.BringUp(cfg)
	} else {
		rig, err = tracedBringUp(cfg, rec)
	}
	if err != nil {
		return nil, err
	}
	caps := make(map[int]float64)
	for dc, c := range rig.Dep.Region.Capacity {
		caps[dc] = float64(c * rig.Dep.Region.Lambda)
	}
	r := &region{rig: rig, shim: shim}
	r.base = baseMatrix(mapSeed, rig.Dep.Region.Map.DCs(), caps)
	if kind == feedDense {
		r.feed = newDenseFeed(seed+1, r.base, caps)
	} else {
		r.feed = newSparseFeed(seed+1, r.base, caps)
	}
	// The lake keeps its production default of 512 records, so reads of
	// it cost what they cost a long-running daemon.
	if r.lake, err = history.New(history.Config{}); err != nil {
		rig.Close()
		return nil, err
	}
	if rec != nil {
		return r, nil
	}
	r.d, err = daemon.New(daemon.Config{
		Fab: rig.Fab, Controller: rig.Testbed.Controller, Feed: r.feed,
		History: r.lake, Seed: seed,
	})
	if err != nil {
		rig.Close()
		return nil, err
	}
	return r, nil
}

// tracedBringUp is fabric.BringUp from the outside: the same calls in the
// same order, one span per layer.
func tracedBringUp(cfg fabric.BringUpConfig, rec *recorder) (*fabric.Rig, error) {
	region, err := placedRegion(rec)
	if err != nil {
		return nil, err
	}
	rec.nextOp()
	root := rec.begin("bringup", -1)
	defer rec.end(root)

	s := rec.begin("core.plan", root)
	dep, err := core.Plan(region, core.Options{})
	rec.end(s)
	if err != nil {
		return nil, err
	}

	s = rec.begin("fabric.build", root)
	fab, err := fabric.Build(dep)
	rec.end(s)
	if err != nil {
		return nil, err
	}

	s = rec.begin("control.testbed", root)
	devs := fab.Devices(cfg.OSSDelay)
	if cfg.WrapDevice != nil {
		for name, dev := range devs {
			devs[name] = cfg.WrapDevice(name, dev)
		}
	}
	tb, err := control.StartTestbedWithOptions(devs, cfg.Dial)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	return &fabric.Rig{Dep: dep, Fab: fab, Testbed: tb}, nil
}

func (r *region) close() {
	if r != nil {
		r.rig.Close()
	}
}

// lived is a region whose daemon has committed at least its first
// allocation, with the ledger that has followed it since bring-up.
type lived struct {
	r   *region
	led *ledger
}

func (l lived) close() { l.r.close() }

// bringUpLived is the set-up of every workload that steps one daemon:
// bring-up to the first committed allocation, then through ticks more
// committed ticks. shim is nil unless device RPCs are to be counted.
func bringUpLived(seed int64, kind feedKind, ticks int, shim *rpcShim, chk *checks) (lived, error) {
	r, err := bringUp(seed, kind, shim, nil)
	if err != nil {
		return lived{}, err
	}
	led := newLedger(r)
	for steps := 0; led.committed <= ticks; steps++ {
		if steps > 4*(ticks+1) {
			r.close()
			return lived{}, fmt.Errorf("only %d of %d ticks committed", led.committed, steps)
		}
		r.d.Step()
		led.observe(chk)
	}
	return lived{r, led}, nil
}

// setUpLived repeats bringUpLived for the median set-up time.
func setUpLived(cfg runConfig, kind feedKind, ticks int, shim *rpcShim, chk *checks) (lived, float64, error) {
	return medianSetup(cfg.setups, func() (lived, error) {
		return bringUpLived(cfg.seed, kind, ticks, shim, chk)
	}, lived.close)
}

// ledger follows a daemon from outside: which ticks committed, and the
// allocation the lake's diffs compose to.
type ledger struct {
	r         *region
	lastID    uint64
	committed int
	noops     int
	acc       core.Allocation
}

func newLedger(r *region) *ledger { return &ledger{r: r} }

// observe is called after every Step. It reports whether the step
// committed a change, and counts a failed operation when it ended in an
// error.
func (l *ledger) observe(chk *checks) (committed bool) {
	st := l.r.d.Status()
	chk.expect(st.LastError == "", "tick %d: %s", st.Steps, st.LastError)
	if st.LastReconfigID == l.lastID {
		l.noops++
		return false
	}
	l.lastID = st.LastReconfigID
	l.committed++
	if rec, ok := l.r.lake.Get(l.lastID); ok {
		l.acc = core.ApplyDeltas(l.acc, rec.Pairs)
	} else {
		chk.fail("reconfig %d has no history record", l.lastID)
	}
	return true
}

// finish runs the end-of-workload checks on a region's daemon.
func (l *ledger) finish(chk *checks) {
	d := l.r.d
	err := d.Audit()
	chk.expect(err == nil, "final audit: %v", err)
	chk.expect(d.Status().Converged, "region not converged at end of run")
	got := l.r.lake.Len() + l.r.lake.Evicted()
	chk.expect(got == l.committed, "lake holds %d records for %d committed ticks", got, l.committed)
	alloc, ok := d.CommittedAlloc()
	chk.expect(ok && l.acc.Equal(alloc), "history diffs do not compose to the committed allocation")
}
