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
// for this binary and irisfleet alike. irisd starts the paper's toy region
// unless told otherwise; -toy=false brings up the region -seed and -dcs
// name (fibermap.Spec: seed 1 and 8 DCs by default), the one irisplan
// -seed N -dcs M plans.
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
// The -listen address is bound before the region is brought up, so a busy
// address fails before any device exists. SIGINT/SIGTERM shut the daemon
// down gracefully: an in-flight reconfiguration finishes its drained
// sequence, the HTTP server closes, then the testbed is torn down. A
// failure to serve ends the daemon the same way and exits 1.
package main

import (
	"context"
	"flag"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"

	"iris/internal/daemon"
	"iris/internal/logging"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err := run(ctx, os.Args, os.Stdout, os.Stderr)
	stop()
	os.Exit(logging.ExitCode(err))
}

// run is irisd with its command line (args[0] is the program name), its
// two output streams and the context whose end shuts it down.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	cfg := daemon.DefaultRegionConfig()
	cfg.RegisterFlags(fs)
	listen := fs.String("listen", "127.0.0.1:9090", "metrics/status HTTP listen address")
	pprofEnabled := fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (off by default)")
	log, err := logging.Parse(fs, args[1:], stderr, "irisd")
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Error("listen failed", "err", err)
		return err
	}
	defer ln.Close()
	cfg.Logger = log
	b, err := daemon.BuildRegion(cfg)
	if err != nil {
		log.Error("bring-up failed", "err", err)
		return err
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

	log.Info("http surface up",
		"addr", ln.Addr().String(),
		"endpoints", "/metrics /status /healthz /debug/events /debug/trace /api/paths /api/critical /api/whatif /api/history")
	if err := daemon.Serve(ctx, ln, mux, d.Run); err != nil {
		log.Error("http serve failed", "err", err)
		return err
	}
	log.Info("bye", "steps", d.Status().Steps)
	return nil
}
