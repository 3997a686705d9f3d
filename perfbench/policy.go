package main

import (
	"context"
	"fmt"
	"time"

	"mdsprint/internal/colocate"
	"mdsprint/internal/core"
	"mdsprint/internal/dist"
	"mdsprint/internal/experiments"
	"mdsprint/internal/explore"
	"mdsprint/internal/online"
	"mdsprint/internal/profiler"
	"mdsprint/internal/sweep"
	"mdsprint/internal/workload"
)

// policyEnv is the ANN-free reproduction path on Jacobi/DVFS at
// experiments.Quick() scale: profile, calibrate and train the hybrid
// model, score a policy sweep twice, anneal the timeout, re-select
// online under drift, and pack Figure 13's combos onto a node.
type policyEnv struct {
	scale experiments.Scale
	mix   workload.Mix
	conds []profiler.Condition
	base  profiler.Condition
	grid  []core.Scenario
	rates []float64 // the online stage's drifting arrival-rate factors

	counters  counterDelta
	sweep     sweep.Stats
	evals     float64
	decideSec []float64
	bestRT    float64
	hosted    int
	rows      []string // last unit's Figure 13 hosted counts
}

func setupPolicy(seed uint64, _ *tracer) (env, error) {
	s := experiments.Quick()
	s.Seed = seed
	c, err := workload.ByName("Jacobi")
	if err != nil {
		return nil, err
	}
	e := &policyEnv{
		scale: s,
		mix:   workload.SingleClass(c),
		conds: profiler.PaperGrid().Sample(s.GridSamples, s.Seed+3),
		base: profiler.Condition{
			Utilization: 0.75, ArrivalKind: dist.KindExponential,
			RefillTime: 200, BudgetPct: 0.25,
		},
	}
	for _, util := range []float64{0.5, 0.75, 0.9} {
		for _, to := range []float64{10, 20, 40, 60, 90, 120, 180, 240} {
			cond := e.base
			cond.Utilization, cond.Timeout = util, to
			e.grid = append(e.grid, core.Scenario{Cond: cond})
		}
	}
	// Alternate ±25% around the base rate: every step drifts past the
	// controller's retune threshold, so each decision re-runs the search.
	for i := 0; i < 16; i++ {
		f := 1.25
		if i%2 == 1 {
			f = 0.75
		}
		e.rates = append(e.rates, f)
	}
	return e, nil
}

func (e *policyEnv) close() error { return nil }

func (e *policyEnv) finish(context.Context, *acct) {}

func (e *policyEnv) unit(ctx context.Context, tr *tracer, acc *acct) int {
	e.counters.mark()
	defer e.counters.add()
	ctx, root := tr.start(ctx, "bench.policy")
	defer root.End()
	s := e.scale
	eng := sweep.New(sweep.Options{})
	defer func() { e.sweep = addStats(e.sweep, eng.Stats()) }()

	ds := profile(ctx, tr, labProfiler(s, e.mix), e.conds)
	hctx, sp := tr.start(ctx, "core.train_hybrid")
	h, err := core.TrainHybridCtx(hctx, []core.TrainingSet{{Dataset: ds, Observations: ds.Observations}}, hybridOptions(s, eng))
	sp.End()
	if !acc.op("core.TrainHybridCtx", err) {
		return 1
	}

	// The policy sweep, scored twice: the second pass is all cache hits
	// and must return the first pass's answers.
	var passes [2][]core.Prediction
	for i := range passes {
		passes[i], err = predictAll(ctx, tr, h, ds, e.grid)
		if !acc.op("core.PredictAllCtx", err) {
			return 1
		}
	}
	same := len(passes[0]) == len(passes[1])
	for i := 0; same && i < len(passes[0]); i++ {
		same = passes[0][i].MeanRT == passes[1][i].MeanRT
	}
	acc.check("policy memoized sweep repeats its answers", same, "second pass differs")

	// The objective's evaluations nest under the search's span, so the
	// search's self time is the annealing alone.
	xctx, sp := tr.start(ctx, "explore.minimize")
	obj := func(timeouts []float64) ([]float64, error) {
		scs := make([]core.Scenario, len(timeouts))
		for i, to := range timeouts {
			cond := e.base
			cond.Timeout = to
			scs[i] = core.Scenario{Cond: cond}
		}
		preds, err := predictAll(xctx, tr, h, ds, scs)
		if err != nil {
			return nil, err
		}
		rts := make([]float64, len(preds))
		for i, p := range preds {
			rts[i] = p.MeanRT
		}
		return rts, nil
	}
	res, err := explore.MinimizeTimeoutBatchCtx(xctx, obj, 0, 300,
		explore.BatchOptions{Options: explore.Options{MaxIter: s.AnnealIter, Seed: s.Seed}})
	sp.End()
	if !acc.op("explore.MinimizeTimeoutBatchCtx", err) {
		return 1
	}
	e.evals += float64(res.Evaluations)
	acc.check("policy annealed RT is positive", res.RT > 0, "RT %v", res.RT)
	// Every pass of a run uses the same seed, so it must find the same
	// optimum.
	acc.check("policy repeat pass reproduces the annealed RT", e.bestRT == 0 || res.RT == e.bestRT,
		"%v, first pass %v", res.RT, e.bestRT)
	e.bestRT = res.RT

	fc, err := online.NewFallbackController(online.FallbackConfig{
		Primary:  h,
		Fallback: &core.NoML{SimQueries: s.SimQueries, SimReps: s.SimReps, Seed: s.Seed + 17, Engine: eng},
		Dataset:  ds, Base: e.base,
		MaxTimeout: 300, AnnealIter: s.AnnealIter, Seed: s.Seed,
		Engine: eng,
	})
	if !acc.op("online.NewFallbackController", err) {
		return 1
	}
	baseRate := e.base.Utilization * ds.ServiceRate
	for i, f := range e.rates {
		octx, sp := tr.start(ctx, "online.timeout")
		t0 := time.Now()
		to, err := fc.TimeoutCtx(octx, baseRate*f)
		e.decideSec = append(e.decideSec, elapsed(t0))
		sp.End()
		if !acc.op("online.TimeoutCtx", err) {
			return 1
		}
		acc.check("policy online decision served at level hybrid", fc.Level() == online.LevelHybrid,
			"step %d at level %s", i, fc.Level())
		acc.check("policy online timeout within [0, 300]", to >= 0 && to <= 300, "step %d timeout %v", i, to)
	}

	e.colocate(ctx, tr, acc, eng)
	return 1
}

// colocate packs every Figure 13 combo under the three planners, as
// experiments.Fig13 does, and checks Figure 13's ordering. The combos
// are the paper's fixed inputs and the planners use experiments.Quick()'s
// own seed, not the run's: how long the planners search varies about
// twofold between seeds, which would swamp the run-to-run spread of
// everything else the workload measures.
func (e *policyEnv) colocate(ctx context.Context, tr *tracer, acc *acct, eng *sweep.Engine) {
	s, seed := e.scale, experiments.Quick().Seed
	est := colocate.SimEstimator{SimQueries: s.SimQueries, SimReps: s.SimReps, Seed: seed + 95, Engine: eng}
	planners := []colocate.Planner{
		colocate.AWSPlanner(est),
		colocate.BudgetPlanner(est, colocate.AWSRefill),
		colocate.SprintPlanner(est, s.AnnealIter, seed+97),
	}
	first := e.rows
	e.hosted, e.rows = 0, nil
	for ci, combo := range experiments.Combos() {
		var n [3]int
		for i, p := range planners {
			_, sp := tr.start(ctx, "colocate.fill_node")
			_, n[i] = colocate.FillNode(combo.Workloads, p)
			sp.End()
		}
		e.hosted += n[2]
		e.rows = append(e.rows, fmt.Sprintf("result %-40s hosted aws %d, budgeting %d, sprinting %d", combo.Name, n[0], n[1], n[2]))
		acc.check("policy fig13 aws <= budgeting <= sprinting", n[0] <= n[1] && n[1] <= n[2],
			"%s: aws %d, budgeting %d, sprinting %d", combo.Name, n[0], n[1], n[2])
		if ci == 0 {
			acc.check("policy fig13 combo1 sprinting beats aws", n[2] > n[0],
				"%s: aws %d, sprinting %d", combo.Name, n[0], n[2])
		}
	}
	if first != nil {
		same := len(first) == len(e.rows)
		for i := 0; same && i < len(first); i++ {
			same = first[i] == e.rows[i]
		}
		acc.check("policy repeat pass reproduces the packing", same, "%v, first pass %v", e.rows, first)
	}
}

// predictAll scores scenarios under a core.predict_all span.
func predictAll(ctx context.Context, tr *tracer, h *core.Hybrid, ds *profiler.Dataset, scs []core.Scenario) ([]core.Prediction, error) {
	ctx, sp := tr.start(ctx, "core.predict_all")
	defer sp.End()
	return h.PredictAllCtx(ctx, ds, scs)
}

func (e *policyEnv) layers(units, traced int, tr *tracer, out map[string]float64) {
	reproLayers(units, &e.counters, e.sweep, tr, traced, out)
	if traced > 0 {
		n := float64(traced)
		out["explore.busy_s"] = float64(tr.layer("explore").BusyNS) / 1e9 / n
		out["explore.self_s"] = float64(tr.layer("explore").SelfNS) / 1e9 / n
		out["colocate.busy_s"] = float64(tr.layer("colocate").BusyNS) / 1e9 / n
	}
	out["explore.evals"] = e.evals / float64(units)
	out["explore.best_rt_s"] = e.bestRT
	out["colocate.hosted"] = float64(e.hosted)
	out["online.decide_us"] = median(e.decideSec) * 1e6
}

func (e *policyEnv) summary() []string {
	return append([]string{
		fmt.Sprintf("result best_rt_s %.4f s (mean RT at the annealed timeout)", e.bestRT),
		fmt.Sprintf("result hosted %d (summed over combos, model-driven sprinting)", e.hosted),
		"result online decide " + summarize(e.decideSec, 1e6, "us"),
	}, e.rows...)
}
