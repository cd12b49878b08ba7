package daemon

import (
	"flag"
	"time"
)

// RegisterFlags declares the region's command-line flags on fs, each bound
// to the field it sets; a flag's default is the value its field holds when
// RegisterFlags is called, so a binary with different defaults sets them
// on the struct first. It is the one place a region flag is declared
// (-toy, -seed and -dcs through fibermap.Spec.RegisterFlags, which
// irisplan and irischaos call too): irisd, irisctl and irisfleet call
// it, and TestEveryKnobHasOneFlag holds every field to exactly one flag
// (or a stated reason to have none).
func (c *RegionConfig) RegisterFlags(fs *flag.FlagSet) {
	c.Spec.RegisterFlags(fs)
	fs.DurationVar(&c.OSSDelay, "oss-delay", c.OSSDelay, "emulated OSS switching time")
	fs.DurationVar(&c.RPCTimeout, "rpc-timeout", c.RPCTimeout, "per-device RPC deadline")

	fs.DurationVar(&c.Interval, "interval", c.Interval, "traffic-step cadence")
	fs.IntVar(&c.MaxBatch, "max-batch", c.MaxBatch, "max queued traffic shifts coalesced into one convergence per step")
	fs.DurationVar(&c.ProbeInterval, "probe-interval", c.ProbeInterval, "device health-probe cadence")
	fs.IntVar(&c.Steps, "steps", c.Steps, "exit after this many traffic steps (0 = run forever)")
	fs.Float64Var(&c.ShiftBound, "shift-bound", c.ShiftBound, "max fractional per-pair demand change per step (≤0 = pair swaps)")
	fs.Float64Var(&c.Util, "util", c.Util, "target hose utilisation of the traffic process")

	fs.IntVar(&c.TraceEvents, "trace-events", c.TraceEvents, "flight-recorder capacity in events (0 disables tracing)")
	fs.IntVar(&c.HistoryRecords, "history-records", c.HistoryRecords, "reconfiguration history lake capacity (0 = default 512, negative disables)")
	fs.StringVar(&c.HistoryPath, "history-path", c.HistoryPath, "persist history records to this JSONL file and replay its tail on start")
	fs.BoolVar(&c.Chaos, "chaos", c.Chaos, "wrap devices in fault shims and serve the injector on /debug/chaos")

	fs.BoolVar(&c.FlowLoad, "flow-load", c.FlowLoad, "simulate the flow-level cost of every reconfiguration (iris_flowsim_* metrics, /status flow_impact)")
	fs.StringVar(&c.FlowDist, "flow-dist", c.FlowDist, "flow-size workload for -flow-load: web1, web2, hadoop or cache")
	fs.Float64Var(&c.FlowUtil, "flow-util", c.FlowUtil, "offered load per pipe for -flow-load, fraction of allocated capacity")
	fs.DurationVar(&c.FlowWindow, "flow-window", c.FlowWindow, "simulated window around each reconfiguration for -flow-load")
	fs.Float64Var(&c.FlowGbps, "flow-gbps-per-wl", c.FlowGbps, "simulated Gbps per wavelength for -flow-load (slowdown is scale-free)")

	fs.BoolVar(&c.Robust, "robust", c.Robust, "METTEOR mode: plan one envelope over recent matrices, reconfigure only on envelope escape")
	fs.IntVar(&c.RobustWindow, "robust-window", c.RobustWindow, "recent matrices the robust envelope is solved over")
	fs.Float64Var(&c.RobustHeadroom, "robust-headroom", c.RobustHeadroom, "robust envelope inflation factor (≥ 1)")
	fs.IntVar(&c.RobustForecast, "robust-forecast", c.RobustForecast, "change-process forecast steps added to the robust envelope set (0 disables)")

	p := &c.Profile
	fs.Float64Var(&p.DiurnalAmp, "diurnal-amp", p.DiurnalAmp, "diurnal swing amplitude in [0,1) applied to traffic and -flow-load arrivals (0 disables)")
	fs.Var((*secondsValue)(&p.DiurnalPeriodS), "diurnal-period", "`duration` of one diurnal cycle for -diurnal-amp")
	fs.Var((*secondsValue)(&p.FlashEveryS), "flash-every", "mean `duration` between flash-crowd onsets (0 disables)")
	fs.Var((*secondsValue)(&p.FlashDurationS), "flash-dur", "`duration` of one flash crowd for -flash-every")
	fs.Float64Var(&p.FlashMult, "flash-mult", p.FlashMult, "flash-crowd demand multiplier for -flash-every")
}

// secondsValue is a duration flag stored as float seconds, the unit of
// traffic.LoadProfile's fields.
type secondsValue float64

func (s *secondsValue) String() string {
	return time.Duration(float64(*s) * float64(time.Second)).String()
}

func (s *secondsValue) Set(v string) error {
	d, err := time.ParseDuration(v)
	if err != nil {
		return err
	}
	*s = secondsValue(d.Seconds())
	return nil
}
