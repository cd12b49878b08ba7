package siting

import (
	"strings"

	"iris/internal/geo"
)

// Render draws a Fig. 5-style ASCII map of the region's service areas:
// cells available to both models print '#', cells only the distributed
// model can use print '+', unusable cells print '.'. Existing DCs print
// 'D', hubs 'H' and other huts 'o'. Width is the number of character
// cells across; the aspect ratio follows the measurement window.
func (a Analysis) Render(hub1, hub2 int, existing []int, width int) string {
	if width < 8 {
		width = 8
	}
	win := a.window()
	cell := win.Width() / float64(width)
	height := int(win.Height()/cell) + 1

	hubDists := [][]float64{a.distancesFrom(hub1), a.distancesFrom(hub2)}
	dcDists := make([][]float64, len(existing))
	for i, dc := range existing {
		dcDists[i] = a.distancesFrom(dc)
	}
	pts := make([]geo.Point, 0, height*width)
	for row := 0; row < height; row++ {
		for col := 0; col < width; col++ {
			pts = append(pts, geo.Point{
				X: win.Min.X + (float64(col)+0.5)*cell,
				Y: win.Max.Y - (float64(row)+0.5)*cell,
			})
		}
	}
	sites := a.Map.Sites(pts)
	grid := make([][]byte, height)
	for row := range grid {
		grid[row] = make([]byte, width)
		for col := range grid[row] {
			s := &sites[row*width+col]
			switch distribOK := reaches(s, dcDists, a.MaxFiberKM); {
			case distribOK && reaches(s, hubDists, a.MaxFiberKM/2):
				grid[row][col] = '#'
			case distribOK:
				grid[row][col] = '+'
			default:
				grid[row][col] = '.'
			}
		}
	}

	place := func(p geo.Point, ch byte) {
		col := int((p.X - win.Min.X) / cell)
		row := int((win.Max.Y - p.Y) / cell)
		if row >= 0 && row < height && col >= 0 && col < width {
			grid[row][col] = ch
		}
	}
	for _, h := range a.Map.Huts() {
		place(a.Map.Nodes[h].Pos, 'o')
	}
	for _, dc := range existing {
		place(a.Map.Nodes[dc].Pos, 'D')
	}
	place(a.Map.Nodes[hub1].Pos, 'H')
	place(a.Map.Nodes[hub2].Pos, 'H')

	var b strings.Builder
	b.WriteString("legend: '#' both models, '+' distributed only, '.' out of reach, D existing DC, H hub, o hut\n")
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	return b.String()
}
