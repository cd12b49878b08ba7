package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 2}, Point{1, 2}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-1, -1}, Point{2, 3}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Dist(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
		})
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Point{ax, ay}, Point{bx, by}
		return a.Dist(b) == b.Dist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a := RandomInRect(rng, NewRect(Point{-50, -50}, Point{50, 50}))
		b := RandomInRect(rng, NewRect(Point{-50, -50}, Point{50, 50}))
		c := RandomInRect(rng, NewRect(Point{-50, -50}, Point{50, 50}))
		if a.Dist(c) > a.Dist(b)+b.Dist(c)+1e-9 {
			t.Fatalf("triangle inequality violated for %v %v %v", a, b, c)
		}
	}
}

func TestVectorOps(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if got := p.add(q); got != (Point{4, 1}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.sub(q); got != (Point{-2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestMidpointCentroid(t *testing.T) {
	pts := []Point{{0, 0}, {2, 0}, {2, 2}, {0, 2}}
	if got := Centroid(pts); got != (Point{1, 1}) {
		t.Errorf("Centroid = %v", got)
	}
	if got := Centroid(nil); got != (Point{}) {
		t.Errorf("Centroid(nil) = %v, want origin", got)
	}
}

func TestRect(t *testing.T) {
	r := NewRect(Point{4, 1}, Point{0, 3})
	if r.Min != (Point{0, 1}) || r.Max != (Point{4, 3}) {
		t.Fatalf("NewRect did not normalise corners: %+v", r)
	}
	if r.Width() != 4 || r.Height() != 2 {
		t.Errorf("Width/Height = %v/%v", r.Width(), r.Height())
	}
	e := r.Expand(1)
	if e.Min != (Point{-1, 0}) || e.Max != (Point{5, 4}) {
		t.Errorf("Expand = %+v", e)
	}
}

func TestBoundingRect(t *testing.T) {
	pts := []Point{{1, 5}, {-2, 0}, {4, 3}}
	r := BoundingRect(pts)
	if r.Min != (Point{-2, 0}) || r.Max != (Point{4, 5}) {
		t.Errorf("BoundingRect = %+v", r)
	}
	if got := BoundingRect(nil); got != (Rect{}) {
		t.Errorf("BoundingRect(nil) = %+v", got)
	}
}

// contains reports whether p lies in r (inclusive of the boundary).
func contains(r Rect, p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

func TestRandomInRect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := NewRect(Point{-3, 2}, Point{7, 9})
	for i := 0; i < 1000; i++ {
		if p := RandomInRect(rng, r); !contains(r, p) {
			t.Fatalf("RandomInRect produced %v outside %+v", p, r)
		}
	}
}

func TestPoissonDiskSpacing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rect := NewRect(Point{0, 0}, Point{60, 60})
	const minDist = 5.0
	pts := PoissonDisk(rng, rect, 40, minDist)
	if len(pts) < 20 {
		t.Fatalf("expected at least 20 points, got %d", len(pts))
	}
	for i := range pts {
		if !contains(rect, pts[i]) {
			t.Fatalf("point %v outside rect", pts[i])
		}
		for j := i + 1; j < len(pts); j++ {
			if d := pts[i].Dist(pts[j]); d < minDist {
				t.Fatalf("points %d and %d are %v apart, want ≥ %v", i, j, d, minDist)
			}
		}
	}
}

func TestPoissonDiskSaturation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// A 10×10 box cannot hold 100 points spaced 5 km apart; the sampler
	// must terminate and return fewer.
	rect := NewRect(Point{0, 0}, Point{10, 10})
	pts := PoissonDisk(rng, rect, 100, 5)
	if len(pts) >= 100 {
		t.Fatalf("expected saturation below 100 points, got %d", len(pts))
	}
	if len(pts) == 0 {
		t.Fatal("expected at least one point")
	}
}

func TestGridPoints(t *testing.T) {
	rect := NewRect(Point{0, 0}, Point{10, 10})
	area := func(cell float64, keep func(Point) bool) float64 {
		pts := GridPoints(rect, cell, keep)
		for _, p := range pts {
			if !keep(p) {
				t.Fatalf("GridPoints returned excluded point %v", p)
			}
		}
		return float64(len(pts)) * cell * cell
	}
	if all := area(0.5, func(Point) bool { return true }); math.Abs(all-100) > 1e-9 {
		t.Errorf("full-rect area = %v, want 100", all)
	}
	if half := area(0.5, func(p Point) bool { return p.X < 5 }); math.Abs(half-50) > 1e-9 {
		t.Errorf("half-rect area = %v, want 50", half)
	}
	// A disk of radius 4 has area 16π ≈ 50.27.
	centre := Point{5, 5}
	if disk := area(0.1, func(p Point) bool { return p.Dist(centre) <= 4 }); math.Abs(disk-16*math.Pi) > 1.0 {
		t.Errorf("disk area = %v, want ≈ %v", disk, 16*math.Pi)
	}
}

func TestGridPointsPanicsOnBadCell(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive cell size")
		}
	}()
	GridPoints(Rect{}, 0, func(Point) bool { return true })
}

func TestDistToSegment(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 0}
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{5, 3}, 3},  // projects onto the interior
		{Point{-4, 0}, 4}, // beyond a: clamp to endpoint
		{Point{13, 4}, 5}, // beyond b: clamp to endpoint
		{Point{7, 0}, 0},  // on the segment
		{Point{2, -2.5}, 2.5},
	}
	for _, c := range cases {
		if got := DistToSegment(c.p, a, b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("DistToSegment(%v, %v, %v) = %v, want %v", c.p, a, b, got, c.want)
		}
	}
	// Degenerate segment falls back to point distance.
	if got := DistToSegment(Point{3, 4}, Point{0, 0}, Point{0, 0}); math.Abs(got-5) > 1e-12 {
		t.Errorf("degenerate DistToSegment = %v, want 5", got)
	}
}
