package core

import (
	"context"
	"math"
	"testing"

	"mdsprint/internal/ann"
	"mdsprint/internal/calib"
	"mdsprint/internal/dist"
	"mdsprint/internal/mech"
	"mdsprint/internal/profiler"
	"mdsprint/internal/stats"
	"mdsprint/internal/workload"
)

// testCalib keeps calibration affordable in unit tests.
var testCalib = calib.Options{NumQueries: 1500, Replications: 2, Tolerance: 0.015, Seed: 3}

// profileJacobi builds a small Jacobi/DVFS dataset.
func profileJacobi(t *testing.T, n int) *profiler.Dataset {
	t.Helper()
	p := &profiler.Profiler{
		Mix:           workload.SingleClass(workload.MustByName("Jacobi")),
		Mechanism:     mech.DVFS{},
		QueriesPerRun: 1000,
		Seed:          11,
	}
	return p.Profile(profiler.PaperGrid().Sample(n, 5))
}

func TestFeaturesMatchNames(t *testing.T) {
	ds := &profiler.Dataset{ServiceRate: 0.01, MarginalRate: 0.015}
	sc := Scenario{Cond: profiler.Condition{
		Utilization: 0.5, ArrivalKind: dist.KindPareto,
		Timeout: 60, RefillTime: 200, BudgetPct: 0.2,
	}}
	f := Features(ds, sc)
	if len(f) != len(FeatureNames()) {
		t.Fatalf("%d features vs %d names", len(f), len(FeatureNames()))
	}
	// Spot-check a few encodings.
	if f[0] != 0.005 { // lambda = util * mu
		t.Errorf("lambda feature %v, want 0.005", f[0])
	}
	if f[1] != 0.5 {
		t.Errorf("utilization feature %v", f[1])
	}
	if f[10] != 1 {
		t.Errorf("pareto flag %v, want 1", f[10])
	}
	if f[9] != 0.2*200 {
		t.Errorf("budget seconds %v, want 40", f[9])
	}
}

func TestScenarioArrivalRateResolution(t *testing.T) {
	ds := &profiler.Dataset{ServiceRate: 0.02}
	explicit := Scenario{ArrivalRate: 0.007}
	if got := explicit.arrivalRate(ds); got != 0.007 {
		t.Fatalf("explicit rate %v", got)
	}
	derived := Scenario{Cond: profiler.Condition{Utilization: 0.75}}
	if got := derived.arrivalRate(ds); math.Abs(got-0.015) > 1e-12 {
		t.Fatalf("derived rate %v, want 0.015", got)
	}
}

func TestHybridEndToEndAccuracy(t *testing.T) {
	ds := profileJacobi(t, 24)
	train, test := profiler.SplitObservations(ds.Observations, 0.8, 7)
	h, err := TrainHybridCtx(context.Background(), []TrainingSet{{Dataset: ds, Observations: train}}, HybridOptions{
		Calib:      testCalib,
		SimQueries: 2500,
		SimReps:    2,
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := EvaluateCtx(context.Background(), h, ds, test)
	if err != nil {
		t.Fatal(err)
	}
	med := stats.Median(ev.Errors)
	if med > 0.15 {
		t.Fatalf("hybrid median error %.1f%% on held-out conditions (errors %v)", med*100, ev.Errors)
	}
}

func TestHybridBeatsNoMLUnderLoad(t *testing.T) {
	// At high utilization the interdependence between queueing and
	// sprint speedup is strongest; the marginal rate overestimates
	// sprint benefit and No-ML should trail the hybrid model
	// (Section 3.1, Figure 7).
	p := &profiler.Profiler{
		Mix:           workload.SingleClass(workload.MustByName("Leuk")),
		Mechanism:     mech.DVFS{},
		QueriesPerRun: 1000,
		Seed:          13,
	}
	grid := profiler.Grid{
		Utilizations: []float64{0.75, 0.95},
		ArrivalKinds: []dist.Kind{dist.KindExponential},
		Timeouts:     []float64{50, 120, 160},
		RefillTimes:  []float64{200, 800},
		BudgetPcts:   []float64{0.2, 0.6},
	}
	ds := p.Profile(grid.Conditions())
	train, test := profiler.SplitObservations(ds.Observations, 0.7, 3)
	h, err := TrainHybridCtx(context.Background(), []TrainingSet{{Dataset: ds, Observations: train}}, HybridOptions{
		Calib: testCalib, SimQueries: 2500, SimReps: 2, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	noml := &NoML{SimQueries: 2500, SimReps: 2, Seed: 17}
	evH, err := EvaluateCtx(context.Background(), h, ds, test)
	if err != nil {
		t.Fatal(err)
	}
	evN, err := EvaluateCtx(context.Background(), noml, ds, test)
	if err != nil {
		t.Fatal(err)
	}
	mh, mn := stats.Median(evH.Errors), stats.Median(evN.Errors)
	if mh >= mn {
		t.Fatalf("hybrid (%.1f%%) should beat No-ML (%.1f%%) on a phase-heavy workload", mh*100, mn*100)
	}
}

func TestANNTrainsAndPredicts(t *testing.T) {
	ds := profileJacobi(t, 16)
	train, test := profiler.SplitObservations(ds.Observations, 0.8, 21)
	model, err := TrainANN(
		[]TrainingSet{{Dataset: ds, Observations: train}},
		ann.Config{HiddenLayers: 3, Width: 24, Epochs: 400, Seed: 23},
	)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := EvaluateCtx(context.Background(), model, ds, test)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ev.Predicted {
		if math.IsNaN(p) || p < 0 {
			t.Fatalf("prediction %d invalid: %v", i, p)
		}
	}
}

func TestEffectiveRateClamped(t *testing.T) {
	ds := profileJacobi(t, 10)
	train := ds.Observations
	h, err := TrainHybridCtx(context.Background(), []TrainingSet{{Dataset: ds, Observations: train}}, HybridOptions{
		Calib: testCalib, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, obs := range ds.Observations {
		rate := h.EffectiveRate(ds, Scenario{Cond: obs.Cond, ArrivalRate: obs.ArrivalRate})
		if rate < 0.5*ds.ServiceRate || rate > 3*ds.MarginalRate {
			t.Fatalf("effective rate %v outside [0.5*mu, 3*mu_m]", rate)
		}
	}
}

func TestHybridRecordsAndImportances(t *testing.T) {
	ds := profileJacobi(t, 10)
	h, err := TrainHybridCtx(context.Background(), []TrainingSet{{Dataset: ds, Observations: ds.Observations}}, HybridOptions{
		Calib: testCalib, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Records()) != len(ds.Observations) {
		t.Fatalf("%d records for %d observations", len(h.Records()), len(ds.Observations))
	}
	imps := h.Importances()
	if len(imps) != len(FeatureNames()) {
		t.Fatalf("%d importances", len(imps))
	}
}

func TestTrainHybridValidation(t *testing.T) {
	if _, err := TrainHybridCtx(context.Background(), nil, HybridOptions{}); err == nil {
		t.Fatal("empty training sets accepted")
	}
	if _, err := TrainHybridCtx(context.Background(), []TrainingSet{{Dataset: &profiler.Dataset{}, Observations: nil}}, HybridOptions{}); err == nil {
		t.Fatal("zero observations accepted")
	}
}

func TestTrainANNValidation(t *testing.T) {
	if _, err := TrainANN(nil, ann.Config{}); err == nil {
		t.Fatal("empty ANN training accepted")
	}
}

func TestEvaluateErrorsConsistent(t *testing.T) {
	ds := profileJacobi(t, 8)
	noml := &NoML{SimQueries: 1500, SimReps: 1, Seed: 37}
	ev, err := EvaluateCtx(context.Background(), noml, ds, ds.Observations)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Errors) != len(ds.Observations) {
		t.Fatalf("%d errors for %d observations", len(ev.Errors), len(ds.Observations))
	}
	for i := range ev.Errors {
		want := math.Abs(ev.Predicted[i]-ev.Observed[i]) / ev.Observed[i]
		if math.Abs(ev.Errors[i]-want) > 1e-12 {
			t.Fatalf("error %d inconsistent", i)
		}
	}
}

func TestModelNames(t *testing.T) {
	if (&NoML{}).Name() != "No-ML" || (&ANN{}).Name() != "ANN" || (&Hybrid{}).Name() != "Hybrid" {
		t.Fatal("model names drifted from Table 1(A)")
	}
}
