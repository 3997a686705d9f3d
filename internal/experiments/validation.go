package experiments

import (
	"context"
	"fmt"
	"math"

	"mdsprint/internal/core"
	"mdsprint/internal/dist"
	"mdsprint/internal/mech"
	"mdsprint/internal/profiler"
	"mdsprint/internal/queuesim"
	"mdsprint/internal/stats"
	"mdsprint/internal/sweep"
	"mdsprint/internal/workload"
)

// MMKRow is one closed-form comparison.
type MMKRow struct {
	Rho       float64
	Analytic  float64
	Simulated float64
	RelError  float64
}

// MMKResult validates the queue simulator against classic M/M/1 response
// times (the paper reports 5% median error on classic MMK workloads,
// Section 3.1).
type MMKResult struct {
	Rows        []MMKRow
	MedianError float64
}

// MMKValidation sweeps utilization against the closed form. The whole
// sweep goes through the lab's sweep engine as one batch; a single
// replication is bit-identical to a direct queuesim run.
func MMKValidation(lab *Lab) MMKResult {
	var res MMKResult
	mu := 0.05
	n := lab.Scale.SimQueries * 10
	rhos := []float64{0.3, 0.5, 0.7, 0.8, 0.9, 0.95}
	tasks := make([]sweep.Task, len(rhos))
	for i, rho := range rhos {
		tasks[i] = sweep.Task{
			Params: queuesim.Params{
				ArrivalRate: rho * mu,
				Service:     dist.NewExponential(mu),
				ServiceRate: mu,
				Timeout:     -1,
				NumQueries:  n,
				Warmup:      n / 10,
				Seed:        lab.Scale.Seed + 71,
			},
			Reps: 1,
		}
	}
	sims, err := lab.Engine().MeanRTsCtx(context.Background(), tasks)
	if err != nil {
		panic(err)
	}
	var errs []float64
	for i, rho := range rhos {
		analytic := 1 / (mu - rho*mu)
		e := math.Abs(sims[i]-analytic) / analytic
		errs = append(errs, e)
		res.Rows = append(res.Rows, MMKRow{Rho: rho, Analytic: analytic, Simulated: sims[i], RelError: e})
	}
	res.MedianError = stats.Median(errs)
	return res
}

// Table renders the validation.
func (r MMKResult) Table() Table {
	t := Table{
		Title:   "Simulator validation — M/M/1 closed form vs timeout-aware simulator",
		Columns: []string{"utilization", "analytic RT", "simulated RT", "error"},
	}
	for _, row := range r.Rows {
		t.AddRow(pct(row.Rho), secs(row.Analytic), secs(row.Simulated), pct(row.RelError))
	}
	t.AddNote("median error %s (paper: 5%% on classic MMK workloads)", pct(r.MedianError))
	return t
}

// DataScalingRow is one training-set size's ANN accuracy.
type DataScalingRow struct {
	TrainObservations int
	ANNMedianError    float64
}

// DataScalingResult reproduces the Section 3.1 claim that the direct-
// mapping ANN needs a multiple of the hybrid model's training data to
// match its accuracy.
type DataScalingResult struct {
	HybridMedianError float64
	HybridTrainSize   int
	Rows              []DataScalingRow
	// RequiredMultiple is the smallest measured training-set multiple
	// at which the ANN matches the hybrid (0 if it never does).
	RequiredMultiple float64
}

// DataScaling trains the hybrid once on the base split and the ANN on
// growing training sets drawn from extra profiling passes.
func DataScaling(lab *Lab) (DataScalingResult, error) {
	var res DataScalingResult
	c := workload.MustByName(lab.Scale.Workloads[0])
	mix := workload.SingleClass(c)
	ds := lab.Dataset(mix, mech.DVFS{})
	train, test := lab.Split(ds, 0.8)
	res.HybridTrainSize = len(train)

	h, err := lab.Hybrid(ds, train, "fig7")
	if err != nil {
		return res, err
	}
	evH, err := core.EvaluateCtx(context.Background(), h, ds, test)
	if err != nil {
		return res, err
	}
	res.HybridMedianError = stats.Median(evH.Errors)

	// Pool of extra observations (conditions the test set never sees),
	// large enough to support several training-set doublings.
	extra := lab.extraObservations(mix, test, lab.Scale.GridSamples*4)
	pool := append(append([]profiler.Observation{}, train...), extra...)

	for _, mult := range []float64{1, 2, 4, 8} {
		size := int(float64(len(train)) * mult)
		if size > len(pool) {
			size = len(pool)
		}
		// Best of two seeds: deep MLPs on tiny datasets are erratic,
		// and the paper's comparison assumes a competently trained
		// ANN at each size.
		med := math.Inf(1)
		for attempt := 0; attempt < 2; attempt++ {
			cfg := lab.annConfig()
			cfg.Seed += uint64(size + attempt*7919)
			m, err := core.TrainANN([]core.TrainingSet{{Dataset: ds, Observations: pool[:size]}}, cfg)
			if err != nil {
				return res, err
			}
			ev, err := core.EvaluateCtx(context.Background(), m, ds, test)
			if err != nil {
				return res, err
			}
			if e := stats.Median(ev.Errors); e < med {
				med = e
			}
		}
		res.Rows = append(res.Rows, DataScalingRow{TrainObservations: size, ANNMedianError: med})
		if res.RequiredMultiple <= 0 && med <= res.HybridMedianError*1.1 {
			res.RequiredMultiple = float64(size) / float64(len(train))
		}
		if size == len(pool) {
			break
		}
	}
	return res, nil
}

// Table renders the scaling study.
func (r DataScalingResult) Table() Table {
	t := Table{
		Title:   "Section 3.1 — ANN training-data requirement vs the hybrid model",
		Columns: []string{"ANN train size", "ANN median error"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%d", row.TrainObservations), pct(row.ANNMedianError))
	}
	t.AddNote("hybrid: %s median error with %d training observations", pct(r.HybridMedianError), r.HybridTrainSize)
	if r.RequiredMultiple > 0 {
		t.AddNote("ANN matches hybrid at ~%.0fx the training data (paper: 6x-54x depending on workload)", r.RequiredMultiple)
	} else {
		t.AddNote("ANN did not match hybrid accuracy within the measured sizes (paper: needs 6x-54x more data)")
	}
	return t
}
