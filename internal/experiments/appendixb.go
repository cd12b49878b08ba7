package experiments

import (
	"fmt"
	"strings"

	"iris/internal/stats"
)

// AppendixBResult summarises the hybrid design's savings over the sweep.
type AppendixBResult struct {
	// FiberSavedFrac is the fraction of Iris residual fiber the hybrid
	// design eliminates, per scenario.
	FiberSavedFrac []float64
	// CostSavedFrac is the total-cost saving of hybrid over Iris.
	CostSavedFrac []float64
}

// AppendixB extracts the hybrid-design savings from sweep rows.
func AppendixB(rows []SweepRow) AppendixBResult {
	var res AppendixBResult
	for _, row := range rows {
		saved := row.Iris.FiberPairs - row.Hybrid.FiberPairs
		residual := row.Iris.FiberPairs - row.EPS.FiberPairs // residual + cut-through pairs
		if residual > 0 {
			res.FiberSavedFrac = append(res.FiberSavedFrac, float64(saved)/float64(residual))
		}
		res.CostSavedFrac = append(res.CostSavedFrac,
			1-row.Hybrid.Total()/row.Iris.Total())
	}
	return res
}

// Format renders the Appendix B summary.
func (r AppendixBResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Appendix B — hybrid (fiber + wavelength switching) vs. pure fiber switching\n")
	fmt.Fprintf(&b, "residual fiber eliminated: median %.0f%% (paper: ≈50%%)\n",
		stats.Median(r.FiberSavedFrac)*100)
	fmt.Fprintf(&b, "total cost saving:         median %.1f%% (paper: small, not worth the complexity)\n",
		stats.Median(r.CostSavedFrac)*100)
	return b.String()
}
