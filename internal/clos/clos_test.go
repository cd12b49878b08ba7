package clos

import (
	"math/rand"
	"testing"
)

func TestSizeValidation(t *testing.T) {
	cases := []struct {
		hosts, radix int
		oversub      float64
	}{
		{0, 32, 1},
		{10, 0, 1},
		{10, 31, 1}, // odd radix
		{10, 32, 0.5},
	}
	for _, c := range cases {
		if _, err := Size(c.hosts, c.radix, c.oversub); err == nil {
			t.Errorf("Size(%d,%d,%v): expected error", c.hosts, c.radix, c.oversub)
		}
	}
}

func TestSingleSwitch(t *testing.T) {
	d, err := Size(30, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Tiers != 1 || d.Switches != 1 || d.InternalPorts != 0 {
		t.Errorf("design = %+v, want single switch", d)
	}
}

func TestLeafSpineNonBlocking(t *testing.T) {
	// 128 hosts on radix-32 switches: leaves with 16 down + 16 up.
	d, err := Size(128, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Tiers != 2 {
		t.Fatalf("tiers = %d, want 2 (%+v)", d.Tiers, d)
	}
	if d.Leaves < 8 {
		t.Errorf("leaves = %d, want ≥ 8 for 128 hosts at 16/leaf", d.Leaves)
	}
	if d.InternalPorts == 0 {
		t.Error("leaf-spine must have internal ports")
	}
	// Non-blocking: internal ports ≥ 2 × hosts/oversub at the leaf tier.
	if d.InternalPorts < 2*128 {
		t.Errorf("internal ports = %d; non-blocking needs ≥ 256", d.InternalPorts)
	}
}

func TestOversubscriptionReducesFabric(t *testing.T) {
	nb, err := Size(256, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	os, err := Size(256, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if os.InternalPorts >= nb.InternalPorts {
		t.Errorf("4:1 oversub internal ports %d not below non-blocking %d",
			os.InternalPorts, nb.InternalPorts)
	}
}

func TestThreeTier(t *testing.T) {
	// 4000 ports exceed what radix-32 leaf-spine can serve (≤ 16×32=512
	// hosts non-blocking), forcing three tiers.
	d, err := Size(4000, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Tiers != 3 {
		t.Fatalf("tiers = %d, want 3 (%+v)", d.Tiers, d)
	}
	if d.Cores == 0 {
		t.Error("three-tier design must have core switches")
	}
	if d.ExternalPorts != 4000 {
		t.Errorf("external ports = %d", d.ExternalPorts)
	}
}

func TestSizeMonotoneInHosts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		radix := 2 * (2 + rng.Intn(31)) // even, 4..64
		a := 1 + rng.Intn(2000)
		b := a + 1 + rng.Intn(500)
		da, errA := Size(a, radix, 1)
		db, errB := Size(b, radix, 1)
		if errA != nil || errB != nil {
			continue // beyond 3-tier capacity for small radix
		}
		if totalPorts(db) < totalPorts(da) {
			t.Fatalf("radix %d: %d hosts needs %d ports but %d hosts needs %d",
				radix, a, totalPorts(da), b, totalPorts(db))
		}
	}
}

func TestCapacityCoversHosts(t *testing.T) {
	// Property: the design's leaf down-capacity covers the host count.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		radix := 2 * (4 + rng.Intn(29))
		hosts := 1 + rng.Intn(radix*radix)
		d, err := Size(hosts, radix, 1)
		if err != nil {
			continue
		}
		switch d.Tiers {
		case 1:
			if hosts > radix {
				t.Fatalf("1-tier design for %d hosts on radix %d", hosts, radix)
			}
		case 2:
			// Leaves × (radix/2) down ports must cover hosts at oversub 1.
			if d.Leaves*radix < hosts {
				t.Fatalf("trial %d: %d leaves of radix %d cannot face %d hosts",
					trial, d.Leaves, radix, hosts)
			}
		}
		if d.ExternalPorts != hosts {
			t.Fatalf("external ports %d != hosts %d", d.ExternalPorts, hosts)
		}
	}
}

func totalPorts(d Design) int { return d.ExternalPorts + d.InternalPorts }

func TestHubOverheadFrac(t *testing.T) {
	// A DCI hub terminating thousands of transceivers pays a significant
	// internal-port tax; a small hub pays none.
	overhead := func(externalPorts int) float64 {
		d, err := Size(externalPorts, 32, 1)
		if err != nil {
			t.Fatal(err)
		}
		return float64(d.InternalPorts) / float64(totalPorts(d))
	}
	if small := overhead(20); small != 0 {
		t.Errorf("small hub overhead = %v, want 0", small)
	}
	big := overhead(3200)
	if big < 0.3 {
		t.Errorf("big hub overhead = %v, want the Clos internal-port tax ≥ 30%%", big)
	}
	if big >= 1 {
		t.Errorf("overhead fraction %v out of range", big)
	}
}
