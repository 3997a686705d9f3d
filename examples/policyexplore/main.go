// Policy exploration: Section 4.3's study in miniature. Profile Jacobi
// under CPU throttling, train the hybrid model, anneal the timeout space,
// and compare the model-driven policy against big-burst, small-burst,
// Few-to-Many and Adrenaline.
package main

import (
	"context"
	"fmt"
	"log"

	"mdsprint/internal/calib"
	"mdsprint/internal/core"
	"mdsprint/internal/dist"
	"mdsprint/internal/explore"
	"mdsprint/internal/forest"
	"mdsprint/internal/mech"
	"mdsprint/internal/policies"
	"mdsprint/internal/profiler"
	"mdsprint/internal/sprint"
	"mdsprint/internal/workload"
)

func main() {
	// Jacobi throttled to 20% of its sprint throughput: sustained 14.8
	// qph, sprint rate 74 qph (Section 4.3's setup), at 80% utilization.
	mix := workload.SingleClass(workload.MustByName("Jacobi"))
	throttle := mech.NewThrottle(0.20)
	p := &profiler.Profiler{
		Mix: mix, Mechanism: throttle,
		QueriesPerRun: 1000, Replications: 2, Seed: 21,
	}
	fmt.Println("profiling throttled Jacobi...")
	ds := p.Profile(profiler.PaperGrid().Sample(40, 9))
	fmt.Printf("  sustained %.1f qph, sprint %.1f qph\n",
		sprint.ToQPH(ds.ServiceRate), sprint.ToQPH(ds.MarginalRate))

	h, err := core.TrainHybridCtx(
		context.Background(),
		[]core.TrainingSet{{Dataset: ds, Observations: ds.Observations}},
		core.HybridOptions{
			Forest:     forest.Config{Trees: 10, FeatureFrac: 0.9, Seed: 22},
			Calib:      calib.Options{NumQueries: 2000, Replications: 3, Tolerance: 0.025, Seed: 23},
			SimQueries: 3000, SimReps: 2, Seed: 24,
		},
	)
	if err != nil {
		log.Fatal(err)
	}

	const (
		util      = 0.8
		refill    = 600.0
		budgetPct = 0.12
	)
	arrival := util * ds.ServiceRate
	ctx := policies.Context{
		Dataset: ds, ArrivalRate: arrival,
		RefillTime: refill, BudgetPct: budgetPct,
		SimQueries: 3000, SimReps: 2, Seed: 25,
	}
	predictRT := func(timeout, budget, speedup float64) float64 {
		pred, err := h.Predict(ds, core.Scenario{
			Cond: profiler.Condition{
				Utilization: util, ArrivalKind: dist.KindExponential,
				Timeout: timeout, RefillTime: refill, BudgetPct: budget, Speedup: speedup,
			},
			ArrivalRate: arrival,
		})
		if err != nil {
			log.Fatal(err)
		}
		return pred.MeanRT
	}

	fmt.Println("\nexpected mean response time per policy:")
	big := policies.BigBurst(ctx)
	small := policies.SmallBurst(ctx)
	f2m, err := policies.FewToMany(ctx)
	if err != nil {
		log.Fatal(err)
	}
	adren, err := policies.Adrenaline(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range []policies.Setting{big, small, f2m, adren} {
		fmt.Printf("  %-12s timeout=%6.1fs budget=%3.0f%% -> %6.1f s\n",
			s.Name, s.Timeout, s.BudgetPct*100, predictRT(s.Timeout, s.BudgetPct, s.Speedup))
	}

	// Model-driven: anneal the timeout space (Equations 4-5).
	res, err := explore.MinimizeTimeout(func(to float64) float64 {
		return predictRT(to, budgetPct, 0)
	}, 0, 300, explore.Options{MaxIter: 200, Seed: 26})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-12s timeout=%6.1fs budget=%3.0f%% -> %6.1f s  (%d model evaluations)\n",
		"model-driven", res.Point[0], budgetPct*100, res.RT, res.Evaluations)

	worst := predictRT(300, budgetPct, 0)
	fmt.Printf("\nbest-vs-worst timeout gap at this budget: %.2fx (paper reports up to 1.65x)\n", worst/res.RT)
}
