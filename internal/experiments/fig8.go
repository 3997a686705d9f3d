package experiments

import (
	"context"
	"sort"

	"mdsprint/internal/core"
	"mdsprint/internal/mech"
	"mdsprint/internal/profiler"
	"mdsprint/internal/stats"
	"mdsprint/internal/workload"
)

// CDFSeries is one labelled error distribution (a curve in Figures 8-9).
type CDFSeries struct {
	Label  string
	Errors []float64 // sorted ascending
}

// Median returns the series' median error.
func (s CDFSeries) Median() float64 { return stats.Median(s.Errors) }

// FracBelow returns the fraction of errors at or below e.
func (s CDFSeries) FracBelow(e float64) float64 { return stats.CDFAt(s.Errors, e) }

// Fig8Result holds the per-workload error CDFs for one model family
// (Figure 8A for Hybrid, 8B for ANN).
type Fig8Result struct {
	Model  string
	Series []CDFSeries
}

// Fig8A evaluates the hybrid model per workload on DVFS.
func Fig8A(lab *Lab) (Fig8Result, error) {
	return fig8(lab, "Hybrid")
}

// Fig8B evaluates the ANN baseline per workload on DVFS.
func Fig8B(lab *Lab) (Fig8Result, error) {
	return fig8(lab, "ANN")
}

func fig8(lab *Lab, modelName string) (Fig8Result, error) {
	res := Fig8Result{Model: modelName}
	for _, c := range lab.Classes() {
		mix := workload.SingleClass(c)
		ds := lab.Dataset(mix, mech.DVFS{})
		train, test := lab.Split(ds, 0.8)
		var m core.Model
		var err error
		switch modelName {
		case "Hybrid":
			m, err = lab.Hybrid(ds, train, "fig7")
		case "ANN":
			m, err = lab.ANN(ds, train)
		}
		if err != nil {
			return res, err
		}
		ev, err := core.EvaluateCtx(context.Background(), m, ds, test)
		if err != nil {
			return res, err
		}
		errs := append([]float64(nil), ev.Errors...)
		sort.Float64s(errs)
		res.Series = append(res.Series, CDFSeries{Label: c.Name, Errors: errs})
	}
	return res, nil
}

// Fig8CResult holds Jacobi's hybrid error CDFs across sprinting hardware,
// plus the Section 3.3 densified core-scaling rerun.
type Fig8CResult struct {
	Series []CDFSeries
	// CoreScaleDenseMedian is the core-scaling median error after
	// adding the 60%/85% arrival centroids and a 90/10 split.
	CoreScaleDenseMedian float64
}

// Fig8C evaluates the hybrid model for Jacobi on DVFS, EC2DVFS and
// CoreScale.
func Fig8C(lab *Lab) (Fig8CResult, error) {
	var res Fig8CResult
	jacobi := workload.SingleClass(workload.MustByName("Jacobi"))
	for _, m := range mech.All() {
		ds := lab.Dataset(jacobi, m)
		train, test := lab.Split(ds, 0.8)
		h, err := lab.Hybrid(ds, train, "fig8c")
		if err != nil {
			return res, err
		}
		ev, err := core.EvaluateCtx(context.Background(), h, ds, test)
		if err != nil {
			return res, err
		}
		errs := append([]float64(nil), ev.Errors...)
		sort.Float64s(errs)
		res.Series = append(res.Series, CDFSeries{Label: m.Name(), Errors: errs})
	}
	// Section 3.3's fix: more data — extra arrival-rate centroids (60%
	// and 85%), twice the sampling budget, and a 90/10 split — drops
	// core-scaling error below 5% in the paper.
	denseScale := lab.Scale
	denseScale.GridSamples *= 2
	denseLab := NewLab(denseScale)
	dsDense := denseLab.DatasetWithGrid(jacobi, mech.CoreScale{}, "dense", profiler.DenseGrid())
	train, test := profiler.SplitObservations(dsDense.Observations, 0.9, lab.Scale.Seed+61)
	h, err := lab.Hybrid(dsDense, train, "fig8c-dense")
	if err != nil {
		return res, err
	}
	ev, err := core.EvaluateCtx(context.Background(), h, dsDense, test)
	if err != nil {
		return res, err
	}
	res.CoreScaleDenseMedian = stats.Median(ev.Errors)
	return res, nil
}

// cdfTable renders CDF series as quantile rows.
func cdfTable(title string, series []CDFSeries, paperNote string) Table {
	t := Table{
		Title:   title,
		Columns: []string{"series", "p25", "median", "p75", "p90", "frac <=10%"},
	}
	for _, s := range series {
		t.AddRow(s.Label,
			pct(stats.Quantile(s.Errors, 0.25)),
			pct(s.Median()),
			pct(stats.Quantile(s.Errors, 0.75)),
			pct(stats.Quantile(s.Errors, 0.90)),
			pct(s.FracBelow(0.10)),
		)
	}
	if paperNote != "" {
		t.AddNote("%s", paperNote)
	}
	return t
}

// Table renders Figure 8A/8B.
func (r Fig8Result) Table() Table {
	note := "paper (Hybrid): median <5% for K-means/Stream/Jacobi/Leuk, <10% for all workloads"
	if r.Model == "ANN" {
		note = "paper (ANN): higher error than Hybrid on every workload; best on low-variance kernels"
	}
	return cdfTable("Figure 8"+map[string]string{"Hybrid": "A", "ANN": "B"}[r.Model]+
		" — prediction-error CDF per workload ("+r.Model+", DVFS)", r.Series, note)
}

// Table renders Figure 8C.
func (r Fig8CResult) Table() Table {
	t := cdfTable("Figure 8C — hybrid error CDF across sprinting hardware (Jacobi)", r.Series,
		"paper: DVFS/EC2DVFS median <4%; CoreScale 8% median, fixed by denser sampling")
	t.AddNote("CoreScale with 60%%/85%% centroids and 90/10 split: median %s (paper: below 5%%)",
		pct(r.CoreScaleDenseMedian))
	return t
}
