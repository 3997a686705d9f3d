// What-if analysis: the Section 1 scenario — "what would response time
// have been if the sprinting budget doubled during last week's spike?" —
// answered with the performance model instead of a production experiment,
// then checked against the (simulated) ground truth.
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
	"mdsprint/internal/testbed"
	"mdsprint/internal/workload"
)

func main() {
	mix := workload.SingleClass(workload.MustByName("Jacobi"))

	// Profile once, offline, under normal operations.
	p := &profiler.Profiler{
		Mix: mix, Mechanism: mech.DVFS{},
		QueriesPerRun: 1000, Replications: 2, Seed: 11,
	}
	fmt.Println("profiling Jacobi on DVFS...")
	ds := p.Profile(profiler.PaperGrid().Sample(40, 5))

	h, err := core.TrainHybridCtx(
		context.Background(),
		[]core.TrainingSet{{Dataset: ds, Observations: ds.Observations}},
		core.HybridOptions{
			Forest:     forest.Config{Trees: 10, FeatureFrac: 0.9, Seed: 12},
			Calib:      calib.Options{NumQueries: 2000, Replications: 3, Tolerance: 0.025, Seed: 13},
			SimQueries: 3000, SimReps: 2, Seed: 14,
		},
	)
	if err != nil {
		log.Fatal(err)
	}

	// Last week's spike: 90% utilization. The deployed policy had a
	// modest budget; would doubling it have helped, and by how much?
	spike := profiler.Condition{
		Utilization: 0.90,
		ArrivalKind: dist.KindExponential,
		Timeout:     80,
		RefillTime:  500,
		BudgetPct:   0.20,
	}
	doubled := spike
	doubled.BudgetPct = 0.40

	predict := func(cond profiler.Condition) float64 {
		pred, err := h.Predict(ds, core.Scenario{Cond: cond})
		if err != nil {
			log.Fatal(err)
		}
		return pred.MeanRT
	}
	rtDeployed := predict(spike)
	rtDoubled := predict(doubled)
	fmt.Printf("\nmodel's answer for the spike (90%% util):\n")
	fmt.Printf("  deployed budget (20%%): expected mean RT %6.1f s\n", rtDeployed)
	fmt.Printf("  doubled budget  (40%%): expected mean RT %6.1f s\n", rtDoubled)
	fmt.Printf("  -> doubling the budget would have improved RT by %.2fx\n", rtDeployed/rtDoubled)

	// Because this repository's "hardware" is itself simulated, we can
	// grade the what-if answer against ground truth — something the
	// paper's operators cannot do without re-living the spike.
	groundTruth := func(cond profiler.Condition) float64 {
		sum := 0.0
		const reps = 4
		for i := 0; i < reps; i++ {
			res := testbed.MustRun(testbed.Config{
				Mix: mix, Mechanism: mech.DVFS{},
				Policy:      cond.Policy(),
				ArrivalKind: cond.ArrivalKind,
				ArrivalRate: cond.Utilization * ds.ServiceRate,
				NumQueries:  4000, Warmup: 400, Seed: 2024 + uint64(i)*31,
			})
			sum += res.MeanResponseTime()
		}
		return sum / reps
	}
	gtDeployed := groundTruth(spike)
	gtDoubled := groundTruth(doubled)
	fmt.Printf("\nground truth (testbed replay):\n")
	fmt.Printf("  deployed budget: %6.1f s (model error %.1f%%)\n",
		gtDeployed, 100*abs(rtDeployed-gtDeployed)/gtDeployed)
	fmt.Printf("  doubled budget:  %6.1f s (model error %.1f%%)\n",
		gtDoubled, 100*abs(rtDoubled-gtDoubled)/gtDoubled)
	fmt.Printf("  actual improvement from doubling: %.2fx\n", gtDeployed/gtDoubled)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
