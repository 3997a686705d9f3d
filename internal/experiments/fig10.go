package experiments

import (
	"context"
	"strconv"

	"mdsprint/internal/core"
	"mdsprint/internal/mech"
	"mdsprint/internal/profiler"
	"mdsprint/internal/sprint"
	"mdsprint/internal/stats"
	"mdsprint/internal/workload"
)

// Fig10Group is one binary grouping's error statistics.
type Fig10Group struct {
	Factor string // e.g. "service"
	Level  string // "hi" or "low" (or "in"/"out" for cluster sampling)
	Errors []float64
}

// Fig10Result studies how prediction error depends on first-class
// parameters — service rate, arrival rate, timeout, sprint budget — and
// on whether test conditions sit on cluster-sampling centroids.
type Fig10Result struct {
	Groups []Fig10Group
}

// Fig10 pools hybrid evaluations across the lab's workloads and splits
// the errors along the paper's binary groupings: service rate at 40 qph,
// utilization at 60%, timeout at 100 s, budget at 40%.
func Fig10(lab *Lab) (Fig10Result, error) {
	var res Fig10Result
	groups := map[string]map[string][]float64{
		"service": {}, "util": {}, "timeout": {}, "budget": {},
	}
	for _, c := range lab.Classes() {
		mix := workload.SingleClass(c)
		ds := lab.Dataset(mix, mech.DVFS{})
		// A 70/30 split gives the groupings enough test mass; the
		// factor medians, not absolute accuracy, are the object here.
		train, test := lab.Split(ds, 0.7)
		h, err := lab.Hybrid(ds, train, "fig10")
		if err != nil {
			return res, err
		}
		ev, err := core.EvaluateCtx(context.Background(), h, ds, test)
		if err != nil {
			return res, err
		}
		for i, o := range test {
			e := ev.Errors[i]
			put := func(factor string, hi bool) {
				level := "low"
				if hi {
					level = "hi"
				}
				groups[factor][level] = append(groups[factor][level], e)
			}
			put("service", sprint.ToQPH(ds.ServiceRate) >= 40)
			put("util", o.Cond.Utilization >= 0.60)
			put("timeout", o.Cond.Timeout >= 100)
			put("budget", o.Cond.BudgetPct >= 0.40)
		}
	}
	for _, factor := range []string{"service", "util", "timeout", "budget"} {
		for _, level := range []string{"hi", "low"} {
			if len(groups[factor][level]) == 0 {
				continue // small grids may leave a level unsampled
			}
			res.Groups = append(res.Groups, Fig10Group{
				Factor: factor, Level: level, Errors: groups[factor][level],
			})
		}
	}
	in, out, err := clusterInOut(lab)
	if err != nil {
		return res, err
	}
	res.Groups = append(res.Groups,
		Fig10Group{Factor: "cluster", Level: "in", Errors: in},
		Fig10Group{Factor: "cluster", Level: "out", Errors: out},
	)
	return res, nil
}

// clusterInOut reproduces the centroid-removal study: train without the
// 75% arrival rate and the 60/70/120 s timeouts, then predict exactly
// those conditions ("out"), versus the usual held-out centroids ("in").
func clusterInOut(lab *Lab) (in, out []float64, err error) {
	mix := workload.SingleClass(workload.MustByName(lab.Scale.Workloads[0]))
	ds := lab.Dataset(mix, mech.DVFS{})

	removed := func(c profiler.Condition) bool {
		if stats.ApproxEqual(c.Utilization, 0.75, 1e-9) {
			return true
		}
		for _, to := range []float64{60, 70, 120} {
			if stats.ApproxEqual(c.Timeout, to, 1e-9) {
				return true
			}
		}
		return false
	}
	var trainObs, outObs []profiler.Observation
	for _, o := range ds.Observations {
		if removed(o.Cond) {
			outObs = append(outObs, o)
		} else {
			trainObs = append(trainObs, o)
		}
	}
	if len(trainObs) < 4 || len(outObs) == 0 {
		// Tiny grids may not include the removed centroids; fall back
		// to an 50/50 split for the "out" side so the experiment still
		// reports something comparable.
		trainObs, outObs = profiler.SplitObservations(ds.Observations, 0.5, lab.Scale.Seed+67)
	}
	hOut, err := lab.Hybrid(ds, trainObs, "fig10-out")
	if err != nil {
		return nil, nil, err
	}
	evOut, err := core.EvaluateCtx(context.Background(), hOut, ds, outObs)
	if err != nil {
		return nil, nil, err
	}
	// "In": the standard 80/20 split where test conditions are centroids
	// that the training distribution covers.
	trainIn, testIn := lab.Split(ds, 0.8)
	hIn, err := lab.Hybrid(ds, trainIn, "fig7")
	if err != nil {
		return nil, nil, err
	}
	evIn, err := core.EvaluateCtx(context.Background(), hIn, ds, testIn)
	if err != nil {
		return nil, nil, err
	}
	return evIn.Errors, evOut.Errors, nil
}

// Median returns the median error of a named group.
func (r Fig10Result) Median(factor, level string) float64 {
	for _, g := range r.Groups {
		if g.Factor == factor && g.Level == level {
			return stats.Median(g.Errors)
		}
	}
	return -1
}

// Table renders the grouped error study.
func (r Fig10Result) Table() Table {
	t := Table{
		Title:   "Figure 10 — error by service rate, utilization, timeout, budget and cluster sampling",
		Columns: []string{"factor", "level", "median err", "p25", "p75", "n"},
	}
	for _, g := range r.Groups {
		t.AddRow(g.Factor, g.Level,
			pct(stats.Median(g.Errors)),
			pct(stats.Quantile(g.Errors, 0.25)),
			pct(stats.Quantile(g.Errors, 0.75)),
			itoa(len(g.Errors)),
		)
	}
	t.AddNote("paper: every parameter group stays within ~4%%; out-of-centroid conditions ~10%% (2.5x the in-centroid error)")
	return t
}

func itoa(n int) string { return strconv.Itoa(n) }
