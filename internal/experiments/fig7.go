package experiments

import (
	"context"
	"fmt"

	"mdsprint/internal/core"
	"mdsprint/internal/mech"
	"mdsprint/internal/profiler"
	"mdsprint/internal/stats"
	"mdsprint/internal/workload"
)

// fig7Buckets are Figure 7's x-axis groups.
var fig7Buckets = []string{"Overall", "30%", "50%", "75%", "95%"}

// Fig7Result compares the modeling approaches of Table 1(A) — Hybrid,
// No-ML, ANN, and ANN with enlarged training data — by median absolute
// relative error, overall and per arrival-rate group.
type Fig7Result struct {
	Approaches []string
	// Errors[approach][bucket] collects per-test absolute relative
	// errors pooled across the lab's workloads.
	Errors map[string]map[string][]float64
}

// MedianError returns the median error for one approach and bucket (NaN
// if the bucket is empty).
func (r Fig7Result) MedianError(approach, bucket string) float64 {
	return stats.Median(r.Errors[approach][bucket])
}

// bucketOf maps an observation to its arrival-rate group.
func bucketOf(cond profiler.Condition) string {
	switch {
	case cond.Utilization <= 0.40:
		return "30%"
	case cond.Utilization <= 0.60:
		return "50%"
	case cond.Utilization <= 0.85:
		return "75%"
	default:
		return "95%"
	}
}

// Fig7 profiles each workload on DVFS, trains every approach on the 80%
// split, and evaluates on the held-out 20%.
func Fig7(lab *Lab) (Fig7Result, error) {
	res := Fig7Result{
		Approaches: []string{"Hybrid", "No-ML", "ANN", "ANN +more data"},
		Errors:     map[string]map[string][]float64{},
	}
	for _, a := range res.Approaches {
		res.Errors[a] = map[string][]float64{}
	}
	record := func(approach string, obs []profiler.Observation, ev core.Evaluation) {
		for i, o := range obs {
			e := ev.Errors[i]
			res.Errors[approach]["Overall"] = append(res.Errors[approach]["Overall"], e)
			b := bucketOf(o.Cond)
			res.Errors[approach][b] = append(res.Errors[approach][b], e)
		}
	}
	for _, c := range lab.Classes() {
		mix := workload.SingleClass(c)
		ds := lab.Dataset(mix, mech.DVFS{})
		train, test := lab.Split(ds, 0.8)

		hybrid, err := lab.Hybrid(ds, train, "fig7")
		if err != nil {
			return res, err
		}
		annModel, err := lab.ANN(ds, train)
		if err != nil {
			return res, err
		}
		// "ANN with more training data": a second profiling pass adds
		// fresh conditions (test conditions excluded to avoid leakage).
		extra := lab.extraObservations(mix, test, lab.Scale.GridSamples/2)
		annMore, err := core.TrainANN(
			[]core.TrainingSet{{Dataset: ds, Observations: append(append([]profiler.Observation{}, train...), extra...)}},
			lab.annConfig(),
		)
		if err != nil {
			return res, err
		}
		models := map[string]core.Model{
			"Hybrid":         hybrid,
			"No-ML":          lab.NoML(),
			"ANN":            annModel,
			"ANN +more data": annMore,
		}
		for name, m := range models {
			ev, err := core.EvaluateCtx(context.Background(), m, ds, test)
			if err != nil {
				return res, fmt.Errorf("fig7 %s on %s: %w", name, c.Name, err)
			}
			record(name, test, ev)
		}
	}
	return res, nil
}

// extraObservations profiles up to n additional grid conditions not
// present in the exclusion list.
func (l *Lab) extraObservations(mix workload.Mix, exclude []profiler.Observation, n int) []profiler.Observation {
	excluded := map[profiler.Condition]bool{}
	for _, o := range exclude {
		excluded[o.Cond] = true
	}
	pool := profiler.PaperGrid().Sample(l.Scale.GridSamples*2+2*n, l.Scale.Seed+57)
	var conds []profiler.Condition
	for _, c := range pool {
		if !excluded[c] {
			conds = append(conds, c)
		}
		if len(conds) >= n {
			break
		}
	}
	p := &profiler.Profiler{
		Mix:           mix,
		Mechanism:     mech.DVFS{},
		QueriesPerRun: l.Scale.ProfQueries,
		Seed:          l.Scale.Seed + 59,
	}
	ds := p.Profile(conds)
	return ds.Observations
}

// Table renders median error per approach and arrival-rate group.
func (r Fig7Result) Table() Table {
	t := Table{
		Title:   "Figure 7 — median abs. relative error by modeling approach and arrival rate",
		Columns: append([]string{"approach"}, fig7Buckets...),
	}
	for _, a := range r.Approaches {
		row := []string{a}
		for _, b := range fig7Buckets {
			row = append(row, pct(r.MedianError(a, b)))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: Hybrid ~4%% overall; ANN ~30%%; No-ML worst at high arrival rates; ANN improves with more data")
	return t
}
