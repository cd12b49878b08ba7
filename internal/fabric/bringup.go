package fabric

import (
	"fmt"
	"time"

	"iris/internal/control"
	"iris/internal/core"
	"iris/internal/fibermap"
	"iris/internal/trace"
)

// BringUpConfig describes a region to plan and materialise into a live
// emulated testbed. It is the single bring-up path: daemon.BuildRegion,
// which every binary that runs a region goes through, calls it, and so do
// bench/ and the tests that need a live fabric.
type BringUpConfig struct {
	// Toy, Seed and DCs name the region as a fibermap.Spec does. They
	// stay fields of their own rather than an embedded Spec because
	// keyed literals, bench/'s among them, set them by name.
	Toy  bool
	Seed int64
	DCs  int
	// DCCapacity is each DC's hose capacity in fiber-pairs (default 10).
	DCCapacity int
	// Lambda is the wavelength count per fiber (default 40).
	Lambda int
	// OSSDelay is the emulated switch settling time (0 = instant).
	OSSDelay time.Duration
	// Dial configures the controller's transport deadlines.
	Dial control.DialOptions
	// WrapDevice, when non-nil, may replace each emulated device before it
	// is served — the hook for fault injection and instrumentation.
	WrapDevice func(name string, dev control.Device) control.Device
	// Tracer, when non-nil, journals the bring-up plan as a "plan" trace
	// with one child per Algorithm-1 stage.
	Tracer *trace.Tracer
}

// Rig is a materialised region: the planned deployment, its fabric, and a
// live testbed with a connected controller.
type Rig struct {
	Dep     *core.Deployment
	Fab     *Fabric
	Testbed *control.Testbed
}

// BringUp plans the region, builds its fabric, and serves the emulated
// device set behind a controller of all of it (each device is dialled on
// its first RPC).
func BringUp(cfg BringUpConfig) (*Rig, error) {
	if cfg.DCCapacity == 0 {
		cfg.DCCapacity = 10
	}
	if cfg.Lambda == 0 {
		cfg.Lambda = 40
	}
	m, err := fibermap.Spec{Toy: cfg.Toy, Seed: cfg.Seed, DCs: cfg.DCs}.Map()
	if err != nil {
		return nil, fmt.Errorf("fabric: bringup: %w", err)
	}
	sp := cfg.Tracer.Start(cfg.Tracer.NextID(), "plan")
	dep, err := core.Plan(core.UniformRegion(m, cfg.DCCapacity, cfg.Lambda), core.Options{Span: sp})
	sp.Fail(err)
	sp.Finish()
	if err != nil {
		return nil, fmt.Errorf("fabric: bringup: %w", err)
	}
	fab, err := Build(dep)
	if err != nil {
		return nil, fmt.Errorf("fabric: bringup: %w", err)
	}
	devs := fab.Devices(cfg.OSSDelay)
	if cfg.WrapDevice != nil {
		for name, dev := range devs {
			devs[name] = cfg.WrapDevice(name, dev)
		}
	}
	tb, err := control.StartTestbedWithOptions(devs, cfg.Dial)
	if err != nil {
		return nil, fmt.Errorf("fabric: bringup: %w", err)
	}
	return &Rig{Dep: dep, Fab: fab, Testbed: tb}, nil
}

// Close shuts the rig's testbed down.
func (r *Rig) Close() { r.Testbed.Close() }
