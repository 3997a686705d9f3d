// Quickstart: profile a workload, train the hybrid performance model, and
// compare sprinting policies by their expected response time — the
// model-driven workflow of Figure 2, end to end in one small program.
package main

import (
	"context"
	"fmt"
	"log"

	"mdsprint/internal/calib"
	"mdsprint/internal/core"
	"mdsprint/internal/dist"
	"mdsprint/internal/forest"
	"mdsprint/internal/mech"
	"mdsprint/internal/profiler"
	"mdsprint/internal/sprint"
	"mdsprint/internal/workload"
)

func main() {
	// 1. Profile a representative workload: Spark K-means on the DVFS
	// platform, replayed over a sample of the cluster-sampling grid.
	mix := workload.SingleClass(workload.MustByName("SparkKmeans"))
	p := &profiler.Profiler{
		Mix:           mix,
		Mechanism:     mech.DVFS{},
		QueriesPerRun: 1000,
		Replications:  2,
		Seed:          42,
	}
	conds := profiler.PaperGrid().Sample(40, 7)
	fmt.Printf("profiling %s over %d policy/arrival conditions...\n", mix.Name, len(conds))
	ds := p.Profile(conds)
	fmt.Printf("  service rate mu      = %5.1f qph\n", sprint.ToQPH(ds.ServiceRate))
	fmt.Printf("  marginal sprint rate = %5.1f qph (%.2fx speedup)\n",
		sprint.ToQPH(ds.MarginalRate), ds.MarginalSpeedup())

	// 2. Train the hybrid model: calibrate effective sprint rates and
	// fit the random decision forest.
	fmt.Println("training hybrid model (profiling -> effective sprint rate -> forest)...")
	h, err := core.TrainHybridCtx(
		context.Background(),
		[]core.TrainingSet{{Dataset: ds, Observations: ds.Observations}},
		core.HybridOptions{
			Forest:     forest.Config{Trees: 10, FeatureFrac: 0.9, Seed: 8},
			Calib:      calib.Options{NumQueries: 2000, Replications: 3, Tolerance: 0.025, Seed: 9},
			SimQueries: 3000, SimReps: 2, Seed: 10,
		},
	)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Compare candidate sprinting policies at 80% utilization without
	// touching the (simulated) production server.
	fmt.Println("\nexpected mean response time at 80% utilization:")
	policies := []profiler.Condition{
		{Utilization: 0.8, ArrivalKind: dist.KindExponential, Timeout: -1},
		{Utilization: 0.8, ArrivalKind: dist.KindExponential, Timeout: 0, RefillTime: 500, BudgetPct: 0.2},
		{Utilization: 0.8, ArrivalKind: dist.KindExponential, Timeout: 60, RefillTime: 500, BudgetPct: 0.2},
		{Utilization: 0.8, ArrivalKind: dist.KindExponential, Timeout: 120, RefillTime: 500, BudgetPct: 0.2},
		{Utilization: 0.8, ArrivalKind: dist.KindExponential, Timeout: 60, RefillTime: 500, BudgetPct: 0.6},
	}
	best := -1
	bestRT := 0.0
	for i, cond := range policies {
		pred, err := h.Predict(ds, core.Scenario{Cond: cond})
		if err != nil {
			log.Fatal(err)
		}
		label := fmt.Sprintf("timeout=%4.0fs budget=%3.0f%%", cond.Timeout, cond.BudgetPct*100)
		if cond.Timeout < 0 {
			label = "no sprinting            "
		}
		fmt.Printf("  %s -> %6.1f s (p99 %6.1f s)\n", label, pred.MeanRT, pred.P99RT)
		if best < 0 || pred.MeanRT < bestRT {
			best, bestRT = i, pred.MeanRT
		}
	}
	fmt.Printf("\nbest policy: timeout=%.0fs budget=%.0f%% (expected %.1f s)\n",
		policies[best].Timeout, policies[best].BudgetPct*100, bestRT)

	// 4. Peek at what the forest learned.
	fmt.Println("\ntop feature importances in the random decision forest:")
	for i, imp := range h.Importances() {
		if i == 4 {
			break
		}
		fmt.Printf("  %-18s %5.1f%%\n", imp.Name, imp.Share*100)
	}
}
