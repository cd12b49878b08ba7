// Package clos sizes the electrical switching fabrics an EPS DCI needs at
// its DCs and huts (§4.2 of the paper: "deploy enough switching capacity
// at the DCs and huts using standard Clos networking techniques"). The
// centralized design's hubs provide a non-blocking "big switch"
// abstraction (§2.3), which at DCI port counts means multi-tier folded
// Clos fabrics — whose internal ports are an EPS cost the optical design
// simply does not have.
package clos

import "fmt"

// Design is a sized folded-Clos fabric.
type Design struct {
	// Tiers is 1 (a single switch suffices), 2 (leaf-spine) or 3
	// (three-tier folded Clos).
	Tiers int
	// Leaves, Spines and Cores are the per-tier switch counts (zero for
	// absent tiers).
	Leaves, Spines, Cores int
	// Switches is the total switch count.
	Switches int
	// ExternalPorts is the number of host-facing (transceiver) ports the
	// design serves.
	ExternalPorts int
	// InternalPorts is the number of fabric-internal ports (both ends of
	// every inter-tier link).
	InternalPorts int
}

// Size returns the smallest non-blocking folded-Clos design serving the
// given number of external ports with switches of the given radix.
// Oversub ≥ 1 permits oversubscribing the leaf uplinks by that factor
// (1 = non-blocking, the paper's hub requirement).
func Size(externalPorts, radix int, oversub float64) (Design, error) {
	if externalPorts <= 0 {
		return Design{}, fmt.Errorf("clos: external ports must be positive, got %d", externalPorts)
	}
	if radix < 2 || radix%2 != 0 {
		return Design{}, fmt.Errorf("clos: radix must be even and ≥ 2, got %d", radix)
	}
	if oversub < 1 {
		return Design{}, fmt.Errorf("clos: oversubscription must be ≥ 1, got %v", oversub)
	}

	// Tier 1: one switch.
	if externalPorts <= radix {
		return Design{
			Tiers: 1, Leaves: 1, Switches: 1,
			ExternalPorts: externalPorts,
		}, nil
	}

	// Tier 2: leaf-spine. Each leaf dedicates down ports to hosts and
	// up ports to spines with up ≥ down/oversub; spine radix bounds the
	// number of leaves.
	if d, ok := leafSpine(externalPorts, radix, oversub); ok {
		return d, nil
	}

	// Tier 3: three-tier folded Clos (k-ary fat-tree generalisation):
	// supports radix²·radix/4 hosts at oversub 1 — far beyond any DCI hub.
	if d, ok := threeTier(externalPorts, radix, oversub); ok {
		return d, nil
	}
	return Design{}, fmt.Errorf("clos: %d ports exceed a 3-tier fabric of radix %d", externalPorts, radix)
}

func leafSpine(hosts, radix int, oversub float64) (Design, bool) {
	// Choose the down-port count per leaf maximising hosts per leaf while
	// keeping uplinks ≥ down/oversub within the radix.
	best := Design{}
	found := false
	for down := 1; down < radix; down++ {
		up := ceilDiv64(down, oversub)
		if down+up > radix {
			continue
		}
		leaves := ceilDiv(hosts, down)
		// Each leaf needs `up` uplinks, spread across spines; each spine
		// has `radix` ports, one per leaf per parallel link. Total spine
		// ports needed: leaves × up.
		spines := ceilDiv(leaves*up, radix)
		// Feasibility: a spine must reach every leaf; with `spines`
		// spines, each leaf's up uplinks spread across them, requiring
		// spines ≤ up × parallelism; the standard condition is
		// leaves ≤ radix (each spine port pairs with one leaf uplink).
		if leaves > radix {
			continue
		}
		d := Design{
			Tiers: 2, Leaves: leaves, Spines: spines,
			Switches:      leaves + spines,
			ExternalPorts: hosts,
			InternalPorts: 2 * leaves * up,
		}
		if !found || d.Switches < best.Switches ||
			(d.Switches == best.Switches && d.InternalPorts < best.InternalPorts) {
			best = d
			found = true
		}
	}
	return best, found
}

func threeTier(hosts, radix int, oversub float64) (Design, bool) {
	// Treat tier 1+2 as pods: each pod is a maximal leaf-spine built from
	// radix/2-down leaves, serving podHosts hosts, with pod spines
	// uplinking to cores.
	half := radix / 2
	podLeaves := radix           // up to radix leaves per pod (spine radix)
	podHosts := podLeaves * half // hosts per pod at oversub 1 downward
	if podHosts == 0 {
		return Design{}, false
	}
	pods := ceilDiv(hosts, podHosts)
	upPerPod := ceilDiv64(podHosts, oversub)
	cores := ceilDiv(pods*upPerPod, radix)
	if pods > radix {
		return Design{}, false
	}
	leaves := pods * podLeaves
	spines := pods * half * 2 // pod spines sized to carry down + up
	d := Design{
		Tiers: 3, Leaves: leaves, Spines: spines, Cores: cores,
		Switches:      leaves + spines + cores,
		ExternalPorts: hosts,
		InternalPorts: 2*leaves*half + 2*pods*upPerPod,
	}
	return d, true
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func ceilDiv64(a int, f float64) int {
	v := float64(a) / f
	n := int(v)
	if float64(n) < v {
		n++
	}
	return n
}
