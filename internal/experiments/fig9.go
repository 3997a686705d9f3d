package experiments

import (
	"context"
	"sort"

	"mdsprint/internal/core"
	"mdsprint/internal/dist"
	"mdsprint/internal/mech"
	"mdsprint/internal/profiler"
	"mdsprint/internal/workload"
)

// Fig9Result holds hybrid prediction-error CDFs for the two query mixes
// of Section 3.4 under heavy-tailed (Pareto) arrivals — the G/G/K setting
// with no closed-form queuing model.
type Fig9Result struct {
	Series []CDFSeries
}

// fig9Grid biases the paper grid toward Pareto arrivals, as the mix study
// does.
func fig9Grid() profiler.Grid {
	g := profiler.PaperGrid()
	g.ArrivalKinds = []dist.Kind{dist.KindPareto, dist.KindExponential}
	return g
}

// Fig9 profiles Mix I (Jacobi+Stream) and Mix II (4-way) and evaluates
// the hybrid model on held-out conditions.
func Fig9(lab *Lab) (Fig9Result, error) {
	var res Fig9Result
	for _, mix := range []workload.Mix{workload.MixI(), workload.MixII()} {
		ds := lab.DatasetWithGrid(mix, mech.DVFS{}, "fig9", fig9Grid())
		train, test := lab.Split(ds, 0.8)
		h, err := lab.Hybrid(ds, train, "fig9")
		if err != nil {
			return res, err
		}
		ev, err := core.EvaluateCtx(context.Background(), h, ds, test)
		if err != nil {
			return res, err
		}
		errs := append([]float64(nil), ev.Errors...)
		sort.Float64s(errs)
		res.Series = append(res.Series, CDFSeries{Label: mix.Name, Errors: errs})
	}
	return res, nil
}

// Table renders the mix-error CDFs.
func (r Fig9Result) Table() Table {
	t := cdfTable("Figure 9 — prediction-error CDF for mixed workloads (Pareto arrivals)", r.Series,
		"paper: Mix I median 7% (75% of predictions <15%); Mix II median 10% (60% <15%)")
	for _, s := range r.Series {
		t.AddNote("%s: %s of predictions below 15%% error", s.Label, pct(s.FracBelow(0.15)))
	}
	return t
}
