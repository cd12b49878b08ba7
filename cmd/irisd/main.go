// Command irisd is the long-running Iris regional control-plane daemon
// (§5 run continuously): it plans a region, materialises it into emulated
// optical devices, then keeps the region converged as demand shifts —
// executing drained reconfigurations, probing device health, quarantining
// flapping devices behind a circuit breaker, and reconciling partially
// applied changes once devices heal. Observability is served over HTTP:
// /metrics (Prometheus text format), /status (JSON), /healthz, plus the
// flight recorder on /debug/events and /debug/trace; pprof is available
// behind -pprof. With -chaos, a live fault injector wraps every emulated
// device and is served on /debug/chaos for inject/restore experiments.
//
// Usage:
//
//	irisd [-toy] [-seed N] [-dcs N] [-oss-delay 20ms]
//	      [-listen 127.0.0.1:9090] [-interval 2s] [-probe-interval 1s]
//	      [-steps N] [-shift-bound 0.4] [-util 0.7]
//	      [-flow-load] [-flow-dist web2] [-flow-util 0.6] [-flow-window 4s]
//	      [-flow-gbps-per-wl 0.25]
//	      [-robust] [-robust-window 4] [-robust-headroom 1.15]
//	      [-robust-forecast 2] [-robust-budget 8]
//	      [-diurnal-amp 0.3] [-diurnal-period 5m]
//	      [-flash-every 60s] [-flash-dur 5s] [-flash-mult 3]
//	      [-log-level info] [-log-json] [-trace-events 4096] [-pprof] [-chaos]
//
// With -flow-load, every drained reconfiguration (and chaos/repair
// cycle) is replayed through the flow-level load engine: the daemon
// reports p50/p99/p999 flow slowdown and bytes stranded during the drain
// as iris_flowsim_* metrics and the flow_impact field of /status. The
// -diurnal-* and -flash-* flags shape both the demand matrices and the
// simulated flow arrivals.
//
// With -robust, the daemon runs METTEOR mode: it plans one envelope
// allocation over the last -robust-window matrices (plus
// -robust-forecast change-process forecasts) inflated by
// -robust-headroom, then skips device reconfiguration while live demand
// stays inside the committed envelope, re-planning only on escape
// (iris_robust_* metrics, /status robust block, /api/whatif?audit=envelope).
//
// The whole region — fabric, feed, injector, flow monitor, daemon — is
// assembled by daemon.BuildRegion, the same path the irisfleet supervisor
// uses for each of its N regions, so the single-region and fleet binaries
// cannot drift.
//
// SIGINT/SIGTERM shut the daemon down gracefully: an in-flight
// reconfiguration finishes its drained sequence, the HTTP server closes,
// then the testbed is torn down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"iris/internal/control"
	"iris/internal/daemon"
	"iris/internal/logging"
	"iris/internal/optics"
	"iris/internal/traffic"
)

func main() {
	var (
		toy      = flag.Bool("toy", true, "use the paper's Fig. 10 toy region")
		seed     = flag.Int64("seed", 1, "generator seed when not using the toy, and traffic seed")
		dcs      = flag.Int("dcs", 5, "DCs to place when not using the toy")
		ossDelay = flag.Duration("oss-delay", time.Duration(optics.OSSSwitchTimeMS)*time.Millisecond,
			"emulated OSS switching time")
		listen        = flag.String("listen", "127.0.0.1:9090", "metrics/status HTTP listen address")
		interval      = flag.Duration("interval", 2*time.Second, "traffic-step cadence")
		maxBatch      = flag.Int("max-batch", 1, "max queued traffic shifts coalesced into one convergence per step")
		probeInterval = flag.Duration("probe-interval", time.Second, "device health-probe cadence")
		steps         = flag.Int("steps", 0, "exit after this many traffic steps (0 = run forever)")
		shiftBound    = flag.Float64("shift-bound", 0.4, "max fractional per-pair demand change per step (≤0 = pair swaps)")
		util          = flag.Float64("util", 0.7, "target hose utilisation of the traffic process")
		rpcTimeout    = flag.Duration("rpc-timeout", control.DefaultRPCTimeout, "per-device RPC deadline")
		logLevel      = flag.String("log-level", "info", "log level: debug, info, warn or error")
		logJSON       = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		traceEvents   = flag.Int("trace-events", 4096, "flight-recorder capacity in events (0 disables tracing)")
		historyRecs   = flag.Int("history-records", 512, "reconfiguration history lake capacity (0 = default 512, negative disables)")
		historyPath   = flag.String("history-path", "", "persist history records to this JSONL file and replay its tail on start")
		pprofEnabled  = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (off by default)")
		chaosEnabled  = flag.Bool("chaos", false, "wrap devices in fault shims and serve the injector on /debug/chaos")

		flowLoad   = flag.Bool("flow-load", false, "simulate the flow-level cost of every reconfiguration (iris_flowsim_* metrics, /status flow_impact)")
		flowDist   = flag.String("flow-dist", "web2", "flow-size workload for -flow-load: web1, web2, hadoop or cache")
		flowUtil   = flag.Float64("flow-util", 0.6, "offered load per pipe for -flow-load, fraction of allocated capacity")
		flowWindow = flag.Duration("flow-window", 4*time.Second, "simulated window around each reconfiguration for -flow-load")
		flowGbps   = flag.Float64("flow-gbps-per-wl", 0.25, "simulated Gbps per wavelength for -flow-load (slowdown is scale-free)")

		robustMode     = flag.Bool("robust", false, "METTEOR mode: plan one envelope over recent matrices, reconfigure only on envelope escape")
		robustWindow   = flag.Int("robust-window", 4, "recent matrices the robust envelope is solved over")
		robustHeadroom = flag.Float64("robust-headroom", 1.15, "robust envelope inflation factor (≥ 1)")
		robustForecast = flag.Int("robust-forecast", 2, "change-process forecast steps added to the robust envelope set (0 disables)")
		robustBudget   = flag.Int("robust-budget", 8, "max solve/tighten iterations per robust envelope")

		diurnalAmp    = flag.Float64("diurnal-amp", 0, "diurnal swing amplitude in [0,1) applied to traffic and -flow-load arrivals (0 disables)")
		diurnalPeriod = flag.Duration("diurnal-period", 5*time.Minute, "diurnal period for -diurnal-amp")
		flashEvery    = flag.Duration("flash-every", 0, "mean interval between flash-crowd onsets (0 disables)")
		flashDur      = flag.Duration("flash-dur", 5*time.Second, "flash-crowd duration for -flash-every")
		flashMult     = flag.Float64("flash-mult", 3, "flash-crowd demand multiplier for -flash-every")
	)
	flag.Parse()

	log, err := logging.New(os.Stderr, *logLevel, *logJSON, "irisd")
	if err != nil {
		fmt.Fprintln(os.Stderr, "irisd:", err)
		os.Exit(2)
	}
	fatal := func(msg string, err error) {
		log.Error(msg, "err", err)
		os.Exit(1)
	}

	cfg := daemon.DefaultRegionConfig()
	cfg.Toy = *toy
	cfg.Seed = *seed
	cfg.DCs = *dcs
	cfg.OSSDelay = *ossDelay
	cfg.RPCTimeout = *rpcTimeout
	cfg.Interval = *interval
	cfg.MaxBatch = *maxBatch
	cfg.ProbeInterval = *probeInterval
	cfg.Steps = *steps
	cfg.ShiftBound = *shiftBound
	cfg.Util = *util
	cfg.TraceEvents = *traceEvents
	cfg.HistoryRecords = *historyRecs
	cfg.HistoryPath = *historyPath
	cfg.Chaos = *chaosEnabled
	cfg.FlowLoad = *flowLoad
	cfg.FlowDist = *flowDist
	cfg.FlowUtil = *flowUtil
	cfg.FlowWindow = *flowWindow
	cfg.FlowGbps = *flowGbps
	cfg.Robust = *robustMode
	cfg.RobustWindow = *robustWindow
	cfg.RobustHeadroom = *robustHeadroom
	cfg.RobustForecast = *robustForecast
	cfg.RobustBudget = *robustBudget
	cfg.Logger = log
	cfg.Profile = traffic.LoadProfile{
		DiurnalAmp: *diurnalAmp, DiurnalPeriodS: diurnalPeriod.Seconds(),
		FlashDurationS: flashDur.Seconds(), FlashMult: *flashMult,
	}
	if *flashEvery > 0 {
		cfg.Profile.FlashEveryS = flashEvery.Seconds()
	}

	b, err := daemon.BuildRegion(cfg)
	if err != nil {
		fatal("bring-up failed", err)
	}
	defer b.Close()
	m := b.Rig.Dep.Region.Map
	log.Info("region up",
		"dcs", len(m.DCs()),
		"devices", len(b.Rig.Testbed.Controller.Devices()),
		"fiber_pairs", b.Rig.Dep.Plan.TotalFiberPairs())
	if b.Shape != nil {
		log.Info("load shape armed",
			"diurnal_amp", *diurnalAmp, "flash_windows", b.Shape.Flashes())
	}
	if b.Injector != nil {
		log.Info("chaos injector armed", "endpoint", "/debug/chaos")
	}
	if b.Monitor != nil {
		log.Info("flow-load monitor armed", "dist", *flowDist, "util", *flowUtil)
	}
	if *robustMode {
		log.Info("robust mode armed",
			"window", *robustWindow, "headroom", *robustHeadroom, "forecast", *robustForecast)
	}
	d := b.Daemon

	mux := http.NewServeMux()
	mux.Handle("/", d.Handler())
	if *pprofEnabled {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Info("pprof enabled", "path", "/debug/pprof/")
	}

	srv := daemon.NewHTTPServer(*listen, mux)
	go func() {
		log.Info("http surface up",
			"addr", *listen,
			"endpoints", "/metrics /status /healthz /debug/events /debug/trace /api/paths /api/critical /api/whatif /api/history")
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("http serve failed", err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := d.Run(ctx); err != nil {
		log.Error("run failed", "err", err)
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Warn("http shutdown", "err", err)
	}
	log.Info("bye", "steps", d.Status().Steps)
}
