package main

import (
	"context"
	"fmt"
	"time"

	"iris/internal/control"
	"iris/internal/core"
	"iris/internal/history"
	"iris/internal/traffic"
)

// runTick is tick-dense and tick-sparse: a closed loop of Daemon.Step()
// on one region, one goroutine, each tick started when the last one
// returned.
func runTick(cfg runConfig, kind feedKind) (*result, error) {
	res := newResult()
	if cfg.rec != nil {
		return res, tracedTick(cfg, kind, res)
	}
	l, setup, err := setUpLived(cfg, kind, 0, nil, &res.checks)
	if err != nil {
		return nil, err
	}
	defer l.close()
	res.set("setup_s", setup)

	ms, busy, _ := stepLoop(l, cfg.budget, cfg.warm, &res.checks)
	l.led.finish(&res.checks)
	res.opStats("tick", ms, busy)
	res.note("committed %d ticks, %d no-op ticks excluded", l.led.committed, l.led.noops)
	return res, nil
}

// stepLoop steps the daemon until the budget is spent and returns the
// latency of every committed tick after warm-up, the time spent inside
// Step() over the measured window, and the heap allocations per tick.
func stepLoop(l lived, b budget, warm int, chk *checks) (ms []float64, busy time.Duration, allocsPerTick float64) {
	r, led := l.r, l.led
	for i := 0; i < warm; i++ {
		r.d.Step()
		led.observe(chk)
	}
	m0 := mallocs()
	start := time.Now()
	ticks := 0
	for !b.done(start, len(ms)) {
		t0 := now()
		r.d.Step()
		el := since(t0)
		busy += el
		ticks++
		if led.observe(chk) {
			ms = append(ms, msOf(el))
		}
	}
	if ticks > 0 {
		allocsPerTick = float64(mallocs()-m0) / float64(ticks)
	}
	return ms, busy, allocsPerTick
}

// replay is the benchmark's own copy of the converge tick: the calls
// daemon.converge and daemon.commitChange make, in their order, made from
// outside so a span can sit on every layer boundary. It keeps the state
// the daemon keeps.
type replay struct {
	r    *region
	rec  *recorder
	ctl  *control.Controller
	dep  *core.Deployment
	st   *core.AllocState
	last *traffic.Matrix
	lkg  core.Allocation
	id   uint64
	n    tickCounts
}

// tickCounts is what the replay counts at the layer boundaries, one entry
// per committed tick.
type tickCounts struct {
	committed, noops, fallbacks, errors int

	pairsChanged, pairsResolved []float64
	changeOps, ctlOps           []float64
	rpcs, auditRPCs             []float64
	fullAllocMS, tickMS         []float64
	phaseMS                     map[string][]float64
}

// first takes the feed's first matrix through a from-scratch allocation,
// the way the daemon's first Step does. It is set-up, not a measured tick.
func (p *replay) first() error {
	tm, _ := p.r.feed.Next()
	st, err := p.dep.AllocateState(tm)
	if err != nil {
		return err
	}
	p.st = st
	_, _, err = p.commit(-1, tm, st.Snapshot(), core.Undo{})
	return err
}

// tick replays one converge tick under a root span.
func (p *replay) tick() error {
	rec := p.rec
	rec.nextOp()
	root := rec.begin("tick", -1)
	tm, _ := p.r.feed.Next()

	s := rec.begin("traffic.diff", root)
	delta := traffic.DiffMatrices(p.last, tm)
	rec.end(s)

	s = rec.begin("core.delta", root)
	undo, stats, err := p.dep.AllocateDelta(p.st, delta)
	solve := rec.end(s)
	if err != nil {
		return fmt.Errorf("allocate: %w", err)
	}

	s = rec.begin("core.snapshot", root)
	alloc := p.st.Snapshot()
	rec.end(s)
	if alloc.Equal(p.lkg) {
		p.last = tm
		p.n.noops++
		rec.discardFrom(root)
		return nil
	}

	ch, rep, err := p.commit(root, tm, alloc, undo)
	if err != nil {
		p.n.errors++
		return err
	}
	n := &p.n
	n.committed++
	n.tickMS = append(n.tickMS, msOf(rec.end(root)))
	n.pairsChanged = append(n.pairsChanged, float64(delta.Len()))
	n.pairsResolved = append(n.pairsResolved, float64(stats.PairsResolved))
	if !stats.Incremental {
		n.fallbacks++
		n.fullAllocMS = append(n.fullAllocMS, msOf(solve))
	}
	ops := 0
	if n.phaseMS == nil {
		n.phaseMS = make(map[string][]float64)
	}
	for _, ph := range rep.Phases {
		ops += ph.Ops
		n.phaseMS[ph.Name] = append(n.phaseMS[ph.Name], msOf(ph.Duration))
	}
	n.ctlOps = append(n.ctlOps, float64(ops))
	n.changeOps = append(n.changeOps, float64(len(ch.Drain)+len(ch.Switches)+len(ch.Amps)+
		len(ch.Retunes)+len(ch.Fills)+len(ch.Undrain)))
	return nil
}

// commit is daemon.commitChange from the outside: compile on a clone,
// reconfigure the devices, audit them, record the change.
func (p *replay) commit(root int, tm *traffic.Matrix, alloc core.Allocation, undo core.Undo) (control.Change, control.Report, error) {
	rec := p.rec
	at := time.Now()
	ctx := context.Background()

	s := rec.begin("fabric.clone", root)
	clone := p.r.rig.Fab.Clone()
	rec.end(s)

	s = rec.begin("fabric.compile", root)
	ch, err := clone.CompileTarget(alloc)
	rec.end(s)
	if err != nil {
		undo.Rollback()
		return ch, control.Report{}, fmt.Errorf("compile: %w", err)
	}

	rpc0 := p.r.shim.n.Load()
	s = rec.begin("control.reconfigure", root)
	rep, err := p.ctl.Reconfigure(ctx, ch)
	rec.end(s)
	if err != nil {
		return ch, rep, fmt.Errorf("reconfigure: %w", err)
	}
	rpc1 := p.r.shim.n.Load()

	s = rec.begin("fabric.expected", root)
	exp := clone.Expected()
	rec.end(s)

	s = rec.begin("control.audit", root)
	err = p.ctl.AuditCtx(ctx, exp)
	rec.end(s)
	if err != nil {
		return ch, rep, fmt.Errorf("audit: %w", err)
	}
	if root >= 0 {
		rpc2 := p.r.shim.n.Load()
		p.n.rpcs = append(p.n.rpcs, float64(rpc2-rpc0))
		p.n.auditRPCs = append(p.n.auditRPCs, float64(rpc2-rpc1))
	}

	p.id++
	s = rec.begin("history.record", root)
	hr := history.Record{
		ReconfigID: p.id,
		Trigger:    history.TriggerConverge,
		At:         at,
		Duration:   time.Since(at),
		Pairs:      core.DiffAlloc(p.lkg, alloc),
	}
	hr.Ducts = p.dep.DuctDeltas(hr.Pairs)
	p.r.lake.Append(hr)
	rec.end(s)

	p.r.rig.Fab, p.lkg, p.last = clone, alloc, tm
	return ch, rep, nil
}

// tickLayers are the spans of a replayed tick, in call order.
var tickLayers = []string{
	"traffic.diff", "core.delta", "core.snapshot", "fabric.clone", "fabric.compile",
	"control.reconfigure", "fabric.expected", "control.audit", "history.record",
}

// bringUpLayers are the spans of a replayed bring-up and the per-layer
// metric each becomes.
var bringUpLayers = []struct {
	span, metric string
	scale        float64 // ns → the metric's unit
}{
	{"fibermap.generate", "fibermap.generate_us", 1e-3},
	{"fibermap.place", "fibermap.place_ms", 1e-6},
	{"fabric.build", "fabric.build_us", 1e-3},
	{"control.testbed", "control.testbed_ms", 1e-6},
}

// tracedTick measures the untraced Step() on one region for a third of
// the budget, then replays the tick under spans on a fresh region with
// the same seed and feed for the rest.
func tracedTick(cfg runConfig, kind feedKind, res *result) error {
	r, err := bringUp(cfg.seed, kind, nil, nil)
	if err != nil {
		return err
	}
	t0 := now()
	r.d.Step()
	res.set("daemon.first_step_ms", msOf(since(t0)))
	led := newLedger(r)
	led.observe(&res.checks)
	stepMS, _, allocs := stepLoop(lived{r, led}, cfg.budget.part(1, 3), cfg.warm, &res.checks)
	t0 = now()
	r.d.Status()
	res.set("daemon.status_us", usOf(since(t0)))
	t0 = now()
	r.d.ProbeOnce()
	res.set("control.probe_ms", msOf(since(t0)))
	led.finish(&res.checks)
	r.close()
	untraced := median(stepMS)
	res.set("daemon.allocs_per_tick", allocs)
	res.set("daemon.noop_ticks", share(led.noops, led.noops+led.committed))
	res.note("untraced Step() ms: %s", summarize(stepMS))

	rec := cfg.rec
	r, err = bringUp(cfg.seed, kind, &rpcShim{}, rec)
	if err != nil {
		return err
	}
	defer r.close()
	setupLayers := layerSelfByOp(rec.spans)
	for _, l := range bringUpLayers {
		res.set(l.metric, median(setupLayers[l.span])*l.scale)
	}

	p := &replay{r: r, rec: rec, ctl: r.rig.Testbed.Controller, dep: r.rig.Dep}
	if err := p.first(); err != nil {
		return err
	}
	for i := 0; i < cfg.warm; i++ {
		if err := p.tick(); err != nil {
			return err
		}
	}
	p.n = tickCounts{}
	measured := len(rec.spans)
	b := cfg.budget.part(2, 3)
	for start := time.Now(); !b.done(start, p.n.committed); {
		res.attempt()
		if err := p.tick(); err != nil {
			res.fail("replayed tick: %v", err)
			break
		}
	}
	err = p.ctl.Audit(r.rig.Fab.Expected())
	res.expect(err == nil, "final audit of the replayed region: %v", err)

	n := &p.n
	layers := layerSelfByOp(rec.spans[measured:])
	us := func(name string) float64 { return median(layers[name]) / 1e3 }
	var covered float64
	for _, name := range tickLayers {
		covered += us(name)
	}
	res.set("traffic.diff_us", us("traffic.diff"))
	res.set("traffic.pairs_changed", mean(n.pairsChanged))
	res.set("core.delta_us", us("core.delta"))
	res.set("core.snapshot_us", us("core.snapshot"))
	res.set("core.pairs_resolved", mean(n.pairsResolved))
	res.set("core.fallbacks", share(n.fallbacks, n.committed))
	res.set("core.full_alloc_ms", median(n.fullAllocMS))
	res.set("fabric.clone_us", us("fabric.clone"))
	res.set("fabric.compile_us", us("fabric.compile"))
	res.set("fabric.expected_us", us("fabric.expected"))
	res.set("fabric.change_ops", mean(n.changeOps))
	if pc := mean(n.pairsChanged); pc > 0 {
		res.set("fabric.ops_per_pair", mean(n.changeOps)/pc)
	}
	res.set("control.reconfigure_ms", us("control.reconfigure")/1e3)
	for _, ph := range []string{"drain", "switch", "retune", "undrain"} {
		res.set("control."+ph+"_ms", median(n.phaseMS[ph]))
	}
	res.set("control.ops", mean(n.ctlOps))
	if ops := mean(n.ctlOps); ops > 0 {
		res.set("control.us_per_op", mean(layers["control.reconfigure"])/1e3/ops)
	}
	res.set("control.audit_ms", us("control.audit")/1e3)
	res.set("control.rpcs", mean(n.rpcs))
	res.set("control.audit_rpcs", mean(n.auditRPCs))
	res.set("control.errors", float64(n.errors))
	res.set("history.record_us", us("history.record"))
	res.set("daemon.self_us", untraced*1e3-covered)
	if untraced > 0 {
		res.set("trace.overhead_ratio", median(n.tickMS)/untraced)
		res.set("trace.coverage_ratio", covered/1e3/untraced)
	}
	res.note("replayed tick ms: %s; %d committed, %d no-op", summarize(n.tickMS), n.committed, n.noops)
	for _, name := range tickLayers {
		res.note("  %-20s %9.1f us  %5.1f%% of Step()", name, us(name), 100*us(name)/1e3/untraced)
	}
	return nil
}
