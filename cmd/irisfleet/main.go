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
// Usage: irisfleet [flags]; irisfleet -h lists them with their defaults.
// Every region flag irisd takes is declared here too, by the same
// daemon.RegionConfig.RegisterFlags, and applies to each region.
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
	// The region template: irisd's flags and defaults, except that a fleet
	// of 100 regions switches instantly and keeps smaller rings.
	rc := daemon.DefaultRegionConfig()
	rc.OSSDelay = 0
	rc.TraceEvents = 1024
	rc.HistoryRecords = 256
	rc.RegisterFlags(flag.CommandLine)
	flag.Lookup("seed").Usage = "fleet seed; region i uses seed+i*stride for its map, traffic and jitter"
	var (
		regions    = flag.Int("regions", 16, "number of regions to build and supervise")
		workers    = flag.Int("workers", 0, "scheduler worker pool size (0 = GOMAXPROCS)")
		listen     = flag.String("listen", "127.0.0.1:9190", "fleet HTTP listen address")
		fleetTrace = flag.Int("fleet-trace-events", 4096, "fleet flight-recorder capacity for fleet-round/fleet-chaos spans (0 disables)")
		logLevel   = flag.String("log-level", "info", "log level: debug, info, warn or error")
		logJSON    = flag.Bool("log-json", false, "emit logs as JSON instead of text")
	)
	flag.Parse()

	log, err := logging.New(os.Stderr, *logLevel, *logJSON, "irisfleet")
	if err != nil {
		fmt.Fprintln(os.Stderr, "irisfleet:", err)
		os.Exit(2)
	}

	cfg := fleet.DefaultConfig()
	cfg.Regions = *regions
	cfg.Seed = rc.Seed
	cfg.Workers = *workers
	cfg.Interval = rc.Interval
	cfg.Logger = log
	if *fleetTrace > 0 {
		cfg.Tracer = trace.New(*fleetTrace)
	}

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
