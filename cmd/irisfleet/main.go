// Command irisfleet is the planet-scale control plane above irisd: one
// supervisor owning N regional control planes, each a full region —
// fabric, evolving traffic feed, allocation state, health probes,
// optional chaos injector and flow monitor — assembled through the same
// daemon.BuildRegion path irisd uses. A sharded scheduler steps every
// idle region concurrently under a bounded worker pool; a region pinned
// by a chaos cycle or slow to converge is skipped, never awaited, so
// regions stay isolated from each other.
//
// Regions publish their hose-model demand aggregates on an inter-region
// bus; the fleet distils cross-region demand skew into the
// iris_fleet_demand_skew / iris_fleet_demand_cv gauges and the /status
// skew report.
//
// The HTTP plane aggregates the whole fleet:
//
//	GET  /metrics        — iris_fleet_* plus every region's iris_*
//	                       metrics, region-labelled
//	GET  /status         — per-region rows + demand skew as JSON
//	GET  /healthz        — 200 while every region is healthy
//	GET  /demand         — raw bus samples + skew report
//	POST /chaos          — correlated multi-region storm
//	*    /regions/{id}/… — each region's own debug surface
//
// Usage:
//
//	irisfleet [-regions 16] [-seed 1] [-workers 0] [-interval 2s]
//	          [-steps N] [-listen 127.0.0.1:9190] [-chaos] [-flow-load]
//	          [-toy] [-dcs 5] [-oss-delay 0] [-util 0.7]
//	          [-shift-bound 0.4] [-trace-events 1024]
//	          [-log-level info] [-log-json]
//
// SIGINT/SIGTERM shut the fleet down gracefully: in-flight region steps
// finish, the HTTP server closes, then every emulated testbed is torn
// down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"iris/internal/daemon"
	"iris/internal/fleet"
	"iris/internal/logging"
	"iris/internal/trace"
)

func main() {
	var (
		regions  = flag.Int("regions", 16, "number of regions to build and supervise")
		seed     = flag.Int64("seed", 1, "fleet seed; region i uses seed+i*stride for its map, traffic and jitter")
		workers  = flag.Int("workers", 0, "scheduler worker pool size (0 = GOMAXPROCS)")
		interval = flag.Duration("interval", 2*time.Second, "scheduler round cadence")
		steps    = flag.Int("steps", 0, "per-region traffic steps before the feed exhausts (0 = run forever)")
		listen   = flag.String("listen", "127.0.0.1:9190", "fleet HTTP listen address")

		toy      = flag.Bool("toy", true, "use the paper's Fig. 10 toy region in every region")
		dcs      = flag.Int("dcs", 5, "DCs per region when not using the toy")
		ossDelay = flag.Duration("oss-delay", 0, "emulated OSS switching time (0 keeps 100-region fleets snappy)")
		util     = flag.Float64("util", 0.7, "target hose utilisation of each region's traffic process")
		shift    = flag.Float64("shift-bound", 0.4, "max fractional per-pair demand change per step (≤0 = pair swaps)")

		chaosOn  = flag.Bool("chaos", false, "arm a chaos injector in every region (enables /chaos storms and /regions/{id}/debug/chaos)")
		flowLoad = flag.Bool("flow-load", false, "arm the flow-impact monitor in every region")

		historyRecs = flag.Int("history-records", 256, "per-region reconfiguration history lake capacity (0 = default 512, negative disables)")

		traceEvents = flag.Int("trace-events", 1024, "per-region flight-recorder capacity (0 disables region tracing)")
		fleetTrace  = flag.Int("fleet-trace-events", 4096, "fleet flight-recorder capacity for fleet-round/fleet-chaos spans (0 disables)")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn or error")
		logJSON     = flag.Bool("log-json", false, "emit logs as JSON instead of text")
	)
	flag.Parse()

	log, err := logging.New(os.Stderr, *logLevel, *logJSON, "irisfleet")
	if err != nil {
		fmt.Fprintln(os.Stderr, "irisfleet:", err)
		os.Exit(2)
	}

	cfg := fleet.DefaultConfig()
	cfg.Regions = *regions
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.Interval = *interval
	cfg.Logger = log
	if *fleetTrace > 0 {
		cfg.Tracer = trace.New(*fleetTrace)
	}

	rc := daemon.DefaultRegionConfig()
	rc.Toy = *toy
	rc.DCs = *dcs
	rc.OSSDelay = *ossDelay
	rc.Interval = *interval
	rc.Steps = *steps
	rc.Util = *util
	rc.ShiftBound = *shift
	rc.Chaos = *chaosOn
	rc.FlowLoad = *flowLoad
	rc.TraceEvents = *traceEvents
	rc.HistoryRecords = *historyRecs
	cfg.Region = rc

	f, err := fleet.New(cfg)
	if err != nil {
		log.Error("fleet bring-up failed", "err", err)
		os.Exit(1)
	}
	defer f.Close()

	srv := daemon.NewHTTPServer(*listen, f.Handler())
	go func() {
		log.Info("fleet http surface up",
			"addr", *listen,
			"endpoints", "/metrics /status /healthz /demand /api/history /chaos /regions/{id}/")
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Error("http serve failed", "err", err)
			os.Exit(1)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := f.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		log.Error("run failed", "err", err)
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Warn("http shutdown", "err", err)
	}
	st := f.Status()
	log.Info("bye", "regions", st.Regions, "converged", st.Converged, "rounds", st.Rounds)
}
