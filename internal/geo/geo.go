// Package geo provides the small amount of 2-D computational geometry the
// regional DCI planner needs: points in a kilometre-scaled plane, distances,
// Poisson-disk sampling for synthetic hut placement, and the grid of
// candidate sites that DC placement draws from and the siting analysis
// measures.
//
// All coordinates are in kilometres. The plane approximation is appropriate
// because regions span only tens of kilometres.
package geo

import (
	"fmt"
	"math"
	"math/rand"
)

// Point is a location in the region plane, in kilometres.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q in kilometres.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// add returns the vector sum p+q.
func (p Point) add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// sub returns the vector difference p-q.
func (p Point) sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// scale returns p scaled by k.
func (p Point) scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Centroid returns the arithmetic mean of the given points. It returns the
// origin for an empty slice.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var c Point
	for _, p := range pts {
		c.X += p.X
		c.Y += p.Y
	}
	return c.scale(1 / float64(len(pts)))
}

// Rect is an axis-aligned rectangle, used as a sampling and measurement
// window. Min is the lower-left corner and Max the upper-right.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanning the two corner points, normalising
// the corner order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Expand returns r grown by d kilometres on every side.
func (r Rect) Expand(d float64) Rect {
	return Rect{
		Min: Point{r.Min.X - d, r.Min.Y - d},
		Max: Point{r.Max.X + d, r.Max.Y + d},
	}
}

// BoundingRect returns the smallest rectangle containing all points. It
// returns the zero rectangle for an empty slice.
func BoundingRect(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r.Min.X = math.Min(r.Min.X, p.X)
		r.Min.Y = math.Min(r.Min.Y, p.Y)
		r.Max.X = math.Max(r.Max.X, p.X)
		r.Max.Y = math.Max(r.Max.Y, p.Y)
	}
	return r
}

// RandomInRect returns a point uniformly distributed in r.
func RandomInRect(rng *rand.Rand, r Rect) Point {
	return Point{
		X: r.Min.X + rng.Float64()*r.Width(),
		Y: r.Min.Y + rng.Float64()*r.Height(),
	}
}

// DistToSegment returns the shortest distance from p to the segment ab.
// It is how correlated failure events (a backhoe or disaster with a blast
// radius) decide which fiber routes they sever: a duct is hit when its
// segment passes within the radius, not only when an endpoint does.
func DistToSegment(p, a, b Point) float64 {
	ab := b.sub(a)
	den := ab.X*ab.X + ab.Y*ab.Y
	if den == 0 {
		return p.Dist(a)
	}
	t := ((p.X-a.X)*ab.X + (p.Y-a.Y)*ab.Y) / den
	t = math.Max(0, math.Min(1, t))
	return p.Dist(a.add(ab.scale(t)))
}

// PoissonDisk samples up to n points inside rect such that no two points are
// closer than minDist. It uses dart throwing with a bounded number of
// attempts per point, which is ample at the densities the fiber-map
// generator requests. The result may contain fewer than n points if the
// rectangle cannot fit that many at the requested spacing.
func PoissonDisk(rng *rand.Rand, rect Rect, n int, minDist float64) []Point {
	const attemptsPerPoint = 64
	pts := make([]Point, 0, n)
	for len(pts) < n {
		placed := false
		for attempt := 0; attempt < attemptsPerPoint; attempt++ {
			cand := RandomInRect(rng, rect)
			ok := true
			for _, p := range pts {
				if cand.Dist(p) < minDist {
					ok = false
					break
				}
			}
			if ok {
				pts = append(pts, cand)
				placed = true
				break
			}
		}
		if !placed {
			break
		}
	}
	return pts
}

// GridPoints returns the centres of all grid cells of the given size within
// rect that satisfy keep. Each point stands for one cell, so a set of them
// measures len × cell² km². A non-positive cell size panics, as it
// indicates a programming error rather than a data condition.
func GridPoints(rect Rect, cell float64, keep func(Point) bool) []Point {
	if cell <= 0 {
		panic("geo: GridPoints requires a positive cell size")
	}
	var pts []Point
	for x := rect.Min.X + cell/2; x < rect.Max.X; x += cell {
		for y := rect.Min.Y + cell/2; y < rect.Max.Y; y += cell {
			p := Point{x, y}
			if keep(p) {
				pts = append(pts, p)
			}
		}
	}
	return pts
}
