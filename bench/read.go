package main

import "time"

// mixTicks is how many sparse ticks api-mix commits before the region
// goes static, so the lake and the allocation look lived-in.
const mixTicks = 64

// mixLoop runs api-mix cycles until the budget is spent and returns each
// cycle's time inside the handlers.
func mixLoop(rd *reader, b budget) (ms []float64, busy time.Duration) {
	for start := time.Now(); !b.done(start, len(ms)); {
		rd.rec.nextOp()
		root := rd.rec.begin("cycle", -1)
		el := rd.cycle(mixSchedule, root)
		rd.rec.end(root)
		busy += el
		ms = append(ms, msOf(el))
	}
	return ms, busy
}

// runAPIMix is api-mix: a static region answering a fixed 20-request
// cycle, one request at a time. No device RPC is made after set-up.
func runAPIMix(cfg runConfig) (*result, error) {
	res := newResult()
	var shim *rpcShim
	if cfg.rec != nil {
		shim = &rpcShim{}
	}
	l, setup, err := setUpLived(cfg, feedSparse, mixTicks, shim, &res.checks)
	if err != nil {
		return nil, err
	}
	defer l.close()

	rd := newReader(l.r, cfg.seed, &res.checks)
	for i := 0; i < cfg.warm; i++ {
		rd.cycle(mixSchedule, -1)
	}
	rd.reset()
	if cfg.rec == nil {
		ms, busy := mixLoop(rd, cfg.budget)
		l.led.finish(&res.checks)
		res.set("setup_s", setup)
		res.opStats("20-request cycle", ms, busy)
		rd.noteKinds(res)
		return res, nil
	}

	untraced, _ := mixLoop(rd, cfg.budget.part(1, 3))
	rd.reset()
	rd.trace(cfg.rec)
	measured, rpc0 := len(cfg.rec.spans), shim.n.Load()
	ms, _ := mixLoop(rd, cfg.budget.part(2, 3))
	res.set("control.rpcs", float64(shim.n.Load()-rpc0))
	l.led.finish(&res.checks)
	rd.layerMetrics(res, cfg.rec.spans[measured:], len(ms))
	res.set("trace.overhead_ratio", median(ms)/median(untraced))
	res.note("20-request cycle ms: untraced %s; traced %s", summarize(untraced), summarize(ms))
	rd.noteKinds(res)
	return res, nil
}

// readCycle is one tick-read operation: a tick, then the reads an
// operator's dashboard would make against the state it left. It returns
// the time inside Step() plus the handlers and whether the tick committed.
func readCycle(l lived, rd *reader, i int, chk *checks) (time.Duration, bool) {
	rec := rd.rec
	rec.nextOp()
	root := rec.begin("cycle", -1)
	s := rec.begin("daemon.step", root)
	t0 := now()
	l.r.d.Step()
	el := since(t0)
	rec.end(s)
	committed := l.led.observe(chk)
	el += rd.cycle(readSchedule, root)
	if i%readK2Every == readK2Every-1 {
		el += rd.send(reqCriticalK2, root)
	}
	rec.end(root)
	return el, committed
}

// readLoop runs tick-read cycles until the budget is spent and returns
// the time of every cycle whose tick committed.
func readLoop(l lived, rd *reader, b budget, chk *checks) (ms []float64, busy time.Duration) {
	i := 0
	for start := time.Now(); !b.done(start, len(ms)); i++ {
		el, committed := readCycle(l, rd, i, chk)
		busy += el
		if committed {
			ms = append(ms, msOf(el))
		}
	}
	return ms, busy
}

// runTickRead is tick-read: the sparse feed with reads beside the writes.
func runTickRead(cfg runConfig) (*result, error) {
	res := newResult()
	l, setup, err := setUpLived(cfg, feedSparse, 0, nil, &res.checks)
	if err != nil {
		return nil, err
	}
	defer l.close()

	rd := newReader(l.r, cfg.seed, &res.checks)
	for i := 0; i < cfg.warm; i++ {
		readCycle(l, rd, i, &res.checks)
	}
	rd.reset()
	if cfg.rec == nil {
		ms, busy := readLoop(l, rd, cfg.budget, &res.checks)
		l.led.finish(&res.checks)
		res.set("setup_s", setup)
		res.opStats("tick+reads cycle", ms, busy)
		res.note("committed %d ticks, %d no-op ticks excluded", l.led.committed, l.led.noops)
		rd.noteKinds(res)
		return res, nil
	}

	untraced, _ := readLoop(l, rd, cfg.budget.part(1, 3), &res.checks)
	rd.reset()
	rd.trace(cfg.rec)
	measured := len(cfg.rec.spans)
	noops := l.led.noops
	ms, _ := readLoop(l, rd, cfg.budget.part(2, 3), &res.checks)
	l.led.finish(&res.checks)
	noops = l.led.noops - noops
	spans := cfg.rec.spans[measured:]
	rd.layerMetrics(res, spans, len(ms)+noops)
	res.set("daemon.noop_ticks", share(noops, len(ms)+noops))
	res.set("trace.overhead_ratio", median(ms)/median(untraced))
	res.note("tick+reads cycle ms: untraced %s; traced %s", summarize(untraced), summarize(ms))
	res.note("  %-22s us: %s", "daemon.step", summarize(spanUS(spans, "daemon.step")))
	rd.noteKinds(res)
	return res, nil
}
