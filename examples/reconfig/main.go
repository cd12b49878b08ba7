// Reconfig: drives the Iris control plane (§5) end to end — emulated OSS,
// amplifier and transceiver agents on Unix sockets, a controller that
// establishes circuits and then executes a drained reconfiguration, and a
// state audit — followed by the physical-layer view of the same event: the
// Fig. 14 BER timeline around the switch.
//
//	go run ./examples/reconfig
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"iris/internal/control"
	"iris/internal/optics"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the demonstration to w and fails if a reconfiguration or the
// audit does.
func run(w io.Writer) error {
	tb, err := control.StartTestbed(map[string]control.Device{
		"dc1-oss":  control.NewOSS(16, 20*time.Millisecond),
		"dc2-oss":  control.NewOSS(16, 20*time.Millisecond),
		"hut-oss":  control.NewOSS(32, 20*time.Millisecond),
		"hut-amp":  control.NewAmplifier(optics.AmpGainDB, -3),
		"dc1-xcvr": control.NewTransceiverBank(2, 40),
		"dc2-xcvr": control.NewTransceiverBank(2, 40),
	})
	if err != nil {
		return err
	}
	defer tb.Close()

	ctx := context.Background()
	fmt.Fprintln(w, "setting up the Fig. 13 circuit (60+60 km via the hut amplifier)...")
	_, err = tb.Controller.Reconfigure(ctx, control.Change{
		Switches: []control.OSSOp{
			{Device: "dc1-oss", In: 0, Out: 4},
			{Device: "hut-oss", In: 0, Out: 1},
			{Device: "dc2-oss", In: 0, Out: 4},
		},
		Retunes: []control.TransceiverOp{
			{Device: "dc1-xcvr", Idx: 0, Wavelength: 10},
			{Device: "dc2-xcvr", Idx: 0, Wavelength: 10},
		},
		Undrain: []control.TransceiverOp{
			{Device: "dc1-xcvr", Idx: 0},
			{Device: "dc2-xcvr", Idx: 0},
		},
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "swapping to the 20+10 km path (drain → switch → retune → undrain)...")
	rep, err := tb.Controller.Reconfigure(ctx, control.Change{
		Drain: []control.TransceiverOp{
			{Device: "dc1-xcvr", Idx: 0},
			{Device: "dc2-xcvr", Idx: 0},
		},
		Switches: []control.OSSOp{
			{Device: "hut-oss", In: 0, Disconnect: true},
			{Device: "hut-oss", In: 0, Out: 2},
		},
		Retunes: []control.TransceiverOp{
			{Device: "dc1-xcvr", Idx: 0, Wavelength: 12},
			{Device: "dc2-xcvr", Idx: 0, Wavelength: 12},
		},
		Undrain: []control.TransceiverOp{
			{Device: "dc1-xcvr", Idx: 0},
			{Device: "dc2-xcvr", Idx: 0},
		},
	})
	if err != nil {
		return err
	}
	for _, p := range rep.Phases {
		fmt.Fprintf(w, "  %-8s %v\n", p.Name, p.Duration.Round(time.Microsecond))
	}
	fmt.Fprintf(w, "  total %v — no live traffic was on the path while it switched\n",
		rep.Total.Round(time.Microsecond))

	if err := tb.Controller.Audit(control.Expected{
		Cross: map[string]map[int]int{"hut-oss": {0: 2}},
	}); err != nil {
		return err
	}
	fmt.Fprintln(w, "audit OK")

	// The same event at the physical layer: BER across a minute-spaced
	// reconfiguration cycle between the two testbed paths.
	fmt.Fprintln(w, "\nphysical layer (Fig. 14): BER across reconfigurations")
	pathA, pathB := optics.TestbedPaths()
	samples, err := optics.ReconfigExperiment{
		Seed: 1, DurationS: 180, IntervalS: 60, SampleMS: 10,
		PathA: pathA, PathB: pathB,
	}.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  max pre-FEC BER %.2e (soft-FEC threshold %.0e)\n",
		optics.MaxBER(samples), optics.SoftFECBERThreshold)
	fmt.Fprintf(w, "  signal loss %.0f ms total across 2 switches (paper: ~50 ms each)\n",
		optics.OutageMS(samples))
	return nil
}
