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
// The -listen address is bound before any region is built. SIGINT/SIGTERM
// shut the fleet down gracefully: in-flight region steps finish, the HTTP
// server closes, then every emulated testbed is torn down. A failure to
// serve ends the fleet the same way and exits 1.
package main

import (
	"context"
	"flag"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"

	"iris/internal/daemon"
	"iris/internal/fleet"
	"iris/internal/logging"
	"iris/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err := run(ctx, os.Args, os.Stdout, os.Stderr)
	stop()
	os.Exit(logging.ExitCode(err))
}

// run is irisfleet with its command line (args[0] is the program name),
// its two output streams and the context whose end shuts it down.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	// The region template: irisd's flags and defaults, except that a fleet
	// of 100 regions switches instantly and keeps smaller rings.
	rc := daemon.DefaultRegionConfig()
	rc.OSSDelay = 0
	rc.TraceEvents = 1024
	rc.HistoryRecords = 256
	rc.RegisterFlags(fs)
	fs.Lookup("seed").Usage = "fleet seed; region i uses seed+i*stride for its map, traffic and jitter"
	cfg := fleet.DefaultConfig()
	fs.IntVar(&cfg.Regions, "regions", 16, "number of regions to build and supervise")
	fs.IntVar(&cfg.Workers, "workers", 0, "scheduler worker pool size (0 = GOMAXPROCS)")
	listen := fs.String("listen", "127.0.0.1:9190", "fleet HTTP listen address")
	fleetTrace := fs.Int("fleet-trace-events", 4096, "fleet flight-recorder capacity for fleet-round/fleet-chaos spans (0 disables)")
	log, err := logging.Parse(fs, args[1:], stderr, "irisfleet")
	if err != nil {
		return err
	}

	cfg.Seed = rc.Seed
	cfg.Interval = rc.Interval
	cfg.Logger = log
	if *fleetTrace > 0 {
		cfg.Tracer = trace.New(*fleetTrace)
	}
	cfg.Region = rc

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Error("listen failed", "err", err)
		return err
	}
	defer ln.Close()
	f, err := fleet.New(cfg)
	if err != nil {
		log.Error("fleet bring-up failed", "err", err)
		return err
	}
	defer f.Close()

	log.Info("fleet http surface up",
		"addr", ln.Addr().String(),
		"endpoints", "/metrics /status /healthz /demand /api/history /chaos /regions/{id}/")
	if err := daemon.Serve(ctx, ln, f.Handler(), f.Run); err != nil {
		log.Error("http serve failed", "err", err)
		return err
	}
	st := f.Status()
	log.Info("bye", "regions", st.Regions, "converged", st.Converged, "rounds", st.Rounds)
	return nil
}
