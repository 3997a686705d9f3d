package main

import (
	"context"
	"fmt"
	"math"

	"mdsprint/internal/core"
	"mdsprint/internal/experiments"
	"mdsprint/internal/mech"
	"mdsprint/internal/profiler"
	"mdsprint/internal/stats"
	"mdsprint/internal/sweep"
	"mdsprint/internal/workload"
)

// fig7Approaches are Figure 7's models, in its order.
var fig7Approaches = []string{"Hybrid", "No-ML", "ANN", "ANN +more data"}

// fig7Env reproduces Figure 7 at experiments.Quick() scale rooted at the
// run's seed: Jacobi and SparkKmeans on DVFS, 80/20 split, with the
// seeds experiments.Fig7 derives.
type fig7Env struct {
	scale   experiments.Scale
	classes []*workload.Class
	conds   []profiler.Condition
	pool    []profiler.Condition

	counters  counterDelta
	sweep     sweep.Stats
	rowEpochs float64
	errs      map[string]float64 // last unit's overall median errors
}

func setupFig7(seed uint64, _ *tracer) (env, error) {
	s := experiments.Quick()
	s.Seed = seed
	e := &fig7Env{scale: s}
	for _, name := range s.Workloads {
		c, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		e.classes = append(e.classes, c)
	}
	e.conds = profiler.PaperGrid().Sample(s.GridSamples, s.Seed+3)
	n := s.GridSamples / 2
	e.pool = profiler.PaperGrid().Sample(s.GridSamples*2+2*n, s.Seed+57)
	return e, nil
}

func (e *fig7Env) close() error { return nil }

func (e *fig7Env) finish(context.Context, *acct) {}

// extraConds picks up to n pool conditions absent from the test split,
// as experiments.Fig7's "more data" pass does.
func (e *fig7Env) extraConds(test []profiler.Observation, n int) []profiler.Condition {
	excluded := map[profiler.Condition]bool{}
	for _, o := range test {
		excluded[o.Cond] = true
	}
	var out []profiler.Condition
	for _, c := range e.pool {
		if len(out) >= n {
			break
		}
		if !excluded[c] {
			out = append(out, c)
		}
	}
	return out
}

func (e *fig7Env) unit(ctx context.Context, tr *tracer, acc *acct) int {
	e.counters.mark()
	defer e.counters.add()
	ctx, root := tr.start(ctx, "bench.fig7")
	defer root.End()
	s := e.scale
	eng := sweep.New(sweep.Options{})
	defer func() { e.sweep = addStats(e.sweep, eng.Stats()) }()
	errs := map[string][]float64{}
	for _, c := range e.classes {
		mix := workload.SingleClass(c)
		ds := profile(ctx, tr, labProfiler(s, mix), e.conds)
		train, test := profiler.SplitObservations(ds.Observations, 0.8, s.Seed+29)
		sets := []core.TrainingSet{{Dataset: ds, Observations: train}}

		hctx, sp := tr.start(ctx, "core.train_hybrid")
		hybrid, err := core.TrainHybridCtx(hctx, sets, hybridOptions(s, eng))
		sp.End()
		if !acc.op("core.TrainHybridCtx "+c.Name, err) {
			return 1
		}
		annModel, ok := e.trainANN(ctx, tr, acc, sets)
		if !ok {
			return 1
		}
		extra := profile(ctx, tr, &profiler.Profiler{
			Mix: mix, Mechanism: mech.DVFS{}, QueriesPerRun: s.ProfQueries, Seed: s.Seed + 59,
		}, e.extraConds(test, s.GridSamples/2))
		more := append(append([]profiler.Observation{}, train...), extra.Observations...)
		annMore, ok := e.trainANN(ctx, tr, acc, []core.TrainingSet{{Dataset: ds, Observations: more}})
		if !ok {
			return 1
		}
		models := []core.Model{hybrid, &core.NoML{SimQueries: s.SimQueries, SimReps: s.SimReps, Seed: s.Seed + 13, Engine: eng}, annModel, annMore}
		for i, m := range models {
			ectx, sp := tr.start(ctx, "core.evaluate")
			ev, err := core.EvaluateCtx(ectx, m, ds, test)
			sp.End()
			if !acc.op("core.Evaluate "+fig7Approaches[i]+" "+c.Name, err) {
				return 1
			}
			checkErrors(acc, fig7Approaches[i]+" on "+c.Name, ev, len(test))
			errs[fig7Approaches[i]] = append(errs[fig7Approaches[i]], ev.Errors...)
		}
	}
	errMedians := map[string]float64{}
	for _, a := range fig7Approaches {
		errMedians[a] = stats.Median(errs[a])
	}
	// Every pass of a run uses the same seed, so it must reproduce the
	// first pass's errors bit for bit.
	if e.errs != nil {
		for _, a := range fig7Approaches {
			acc.check("fig7 repeat pass reproduces the errors", errMedians[a] == e.errs[a],
				"%s: %v, first pass %v", a, errMedians[a], e.errs[a])
		}
	}
	e.errs = errMedians
	return 1
}

// checkErrors checks that an evaluation scored every test point with a
// finite, non-negative error.
func checkErrors(acc *acct, what string, ev core.Evaluation, n int) {
	ok := len(ev.Errors) == n
	for _, x := range ev.Errors {
		ok = ok && x >= 0 && !math.IsNaN(x) && !math.IsInf(x, 0)
	}
	acc.check("fig7 every test point scored with a finite error", ok, "%s: %d errors for %d points", what, len(ev.Errors), n)
}

// verdicts are Figure 7's claims as TestFig7HybridWins states them. At
// Quick() scale they hold for some seeds only (README.md), so a run
// reports them and does not count them as failures.
func (e *fig7Env) verdicts() []string {
	hyb, noml, annErr := e.errs["Hybrid"], e.errs["No-ML"], e.errs["ANN"]
	held := map[bool]string{true: "held", false: "NOT held"}
	return []string{
		fmt.Sprintf("verdict hybrid error <= 0.20: %s (%.4f)", held[hyb <= 0.20], hyb),
		fmt.Sprintf("verdict hybrid below No-ML: %s (%.4f vs %.4f)", held[hyb < noml], hyb, noml),
		fmt.Sprintf("verdict hybrid below ANN: %s (%.4f vs %.4f)", held[hyb < annErr], hyb, annErr),
	}
}

// trainANN fits one ANN baseline under an ann.train span.
func (e *fig7Env) trainANN(ctx context.Context, tr *tracer, acc *acct, sets []core.TrainingSet) (*core.ANN, bool) {
	_, sp := tr.start(ctx, "ann.train")
	m, err := core.TrainANN(sets, annConfig(e.scale))
	sp.End()
	rows := 0
	for _, s := range sets {
		rows += len(s.Observations)
	}
	e.rowEpochs += float64(rows * e.scale.ANNEpochs)
	return m, acc.op("core.TrainANN", err)
}

func (e *fig7Env) layers(units, traced int, tr *tracer, out map[string]float64) {
	reproLayers(units, &e.counters, e.sweep, tr, traced, out)
	if traced > 0 {
		out["ann.busy_s"] = float64(tr.layer("ann").BusyNS) / 1e9 / float64(traced)
	}
	out["ann.row_epochs"] = e.rowEpochs / float64(units)
	out["core.hybrid_err"] = e.errs["Hybrid"]
	out["core.noml_err"] = e.errs["No-ML"]
	out["core.ann_err"] = e.errs["ANN"]
}

func (e *fig7Env) summary() []string {
	var out []string
	for _, a := range fig7Approaches {
		out = append(out, fmt.Sprintf("result %-16s overall median abs. relative error %.4f", a, e.errs[a]))
	}
	return append(out, e.verdicts()...)
}
