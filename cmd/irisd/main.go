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
// Usage: irisd [flags]; irisd -h lists them with their defaults. The
// region flags are declared once, by daemon.RegionConfig.RegisterFlags,
// for this binary and irisfleet alike.
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

	"iris/internal/daemon"
	"iris/internal/logging"
)

func main() {
	cfg := daemon.DefaultRegionConfig()
	cfg.RegisterFlags(flag.CommandLine)
	var (
		listen       = flag.String("listen", "127.0.0.1:9090", "metrics/status HTTP listen address")
		logLevel     = flag.String("log-level", "info", "log level: debug, info, warn or error")
		logJSON      = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		pprofEnabled = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (off by default)")
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

	cfg.Logger = log
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
			"diurnal_amp", cfg.Profile.DiurnalAmp, "flash_windows", b.Shape.Flashes())
	}
	if b.Injector != nil {
		log.Info("chaos injector armed", "endpoint", "/debug/chaos")
	}
	if b.Monitor != nil {
		log.Info("flow-load monitor armed", "dist", cfg.FlowDist, "util", cfg.FlowUtil)
	}
	if cfg.Robust {
		log.Info("robust mode armed",
			"window", cfg.RobustWindow, "headroom", cfg.RobustHeadroom, "forecast", cfg.RobustForecast)
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
