package mdsprint

// This file is the library's public surface: a thin façade over the
// internal packages that walks the paper's workflow — profile a workload,
// train a performance model, predict response times for candidate
// sprinting policies, and search the policy space. The examples/ programs
// use the internal packages directly (same module); external importers
// get everything they need from here.

import (
	"context"
	"fmt"
	"math"

	"mdsprint/internal/calib"
	"mdsprint/internal/core"
	"mdsprint/internal/dist"
	"mdsprint/internal/explore"
	"mdsprint/internal/forest"
	"mdsprint/internal/mech"
	"mdsprint/internal/obs"
	"mdsprint/internal/profiler"
	"mdsprint/internal/sprint"
	"mdsprint/internal/trace"
	"mdsprint/internal/workload"
)

// Re-exported core vocabulary. See the respective internal packages for
// full documentation.
type (
	// Dataset is a profiled workload: service rate, marginal sprint
	// rate, service-time samples and per-condition observations.
	Dataset = profiler.Dataset
	// Condition is one workload/policy setting: utilization, arrival
	// family, timeout, refill window, budget fraction.
	Condition = profiler.Condition
	// Observation is a measured Condition.
	Observation = profiler.Observation
	// Scenario is a prediction request.
	Scenario = core.Scenario
	// Prediction is a model's expected response time (mean and tail).
	Prediction = core.Prediction
	// Model predicts response times for scenarios against a Dataset.
	Model = core.Model
	// Policy is a complete sprinting policy (timeout, budget, refill
	// semantics, sprint rate).
	Policy = sprint.Policy
	// Mechanism is sprinting hardware (DVFS, core scaling, EC2 DVFS,
	// CPU throttling).
	Mechanism = mech.Mechanism
	// Mix is a query mix served by one machine.
	Mix = workload.Mix
	// WorkloadClass is one Table 1(C) workload.
	WorkloadClass = workload.Class
	// Metrics is a concurrency-safe registry of counters, gauges and
	// windowed histograms with Prometheus-text and JSON exposition.
	Metrics = obs.Registry
	// QueryTracer receives per-query lifecycle events from the queue
	// simulator; QueryEvent is one such event.
	QueryTracer = obs.QueryTracer
	QueryEvent  = obs.QueryEvent
)

// DefaultMetrics returns the process-wide registry every component
// records into unless given an explicit one.
func DefaultMetrics() *Metrics { return obs.Default() }

// NewMetrics returns an empty, isolated metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewRingTracer returns a bounded in-memory event sink retaining the last
// capacity events (a safe default when capacity <= 0).
func NewRingTracer(capacity int) *obs.RingTracer { return obs.NewRingTracer(capacity) }

// SaveEvents persists simulator lifecycle traces as JSONL.
func SaveEvents(path string, events []QueryEvent) error { return trace.SaveEvents(path, events) }

// LoadEvents reads back a JSONL trace written by SaveEvents.
func LoadEvents(path string) ([]QueryEvent, error) { return trace.LoadEvents(path) }

// Arrival distribution families for Condition.ArrivalKind.
const (
	ArrivalExponential   = dist.KindExponential
	ArrivalPareto        = dist.KindPareto
	ArrivalDeterministic = dist.KindDeterministic
)

// Dist is a one-dimensional distribution over non-negative values.
type Dist = dist.Dist

// ParseDist parses a distribution spec such as "exp(2)", "uniform(1,3)"
// or "lognormal(4,0.5)"; see internal/dist.ParseDist for the grammar. It
// validates every argument and never panics on malformed input.
func ParseDist(spec string) (Dist, error) { return dist.ParseDist(spec) }

// Workloads returns the Table 1(C) catalog.
func Workloads() []*WorkloadClass { return workload.Catalog() }

// WorkloadMix resolves a workload name ("Jacobi", ... or "MixI"/"MixII")
// into a query mix.
func WorkloadMix(name string) (Mix, error) {
	switch name {
	case "MixI":
		return workload.MixI(), nil
	case "MixII":
		return workload.MixII(), nil
	default:
		c, err := workload.ByName(name)
		if err != nil {
			return Mix{}, err
		}
		return workload.SingleClass(c), nil
	}
}

// MechanismByName resolves "DVFS", "CoreScale" or "EC2DVFS"; use
// Throttle for CPU throttling.
func MechanismByName(name string) (Mechanism, error) { return mech.ByName(name) }

// Throttle returns the CPU-throttling mechanism limiting the sustained
// rate to fraction of the CPU (AWS T2.small is Throttle(0.20)).
func Throttle(fraction float64) Mechanism { return mech.NewThrottle(fraction) }

// ProfileOptions configures Profile.
type ProfileOptions struct {
	// Conditions profiled; nil samples Samples conditions (default 80)
	// from the paper's cluster-sampling grid.
	Conditions []Condition
	Samples    int
	// QueriesPerRun sizes each replay (default 1500).
	QueriesPerRun int
	// Seed roots all randomness.
	Seed uint64
	// Metrics receives profiling progress; nil uses DefaultMetrics().
	Metrics *Metrics
}

// Profile replays the mix on the mechanism over the sampled conditions
// and returns the paper's three profiler outputs bundled as a Dataset.
func Profile(mix Mix, m Mechanism, opts ProfileOptions) (*Dataset, error) {
	if len(mix.Components) == 0 {
		return nil, fmt.Errorf("mdsprint: empty mix")
	}
	if m == nil {
		return nil, fmt.Errorf("mdsprint: nil mechanism")
	}
	conds := opts.Conditions
	if conds == nil {
		n := opts.Samples
		if n == 0 {
			n = 80
		}
		conds = profiler.PaperGrid().Sample(n, opts.Seed+3)
	}
	p := &profiler.Profiler{
		Mix:           mix,
		Mechanism:     m,
		QueriesPerRun: opts.QueriesPerRun,
		Replications:  2,
		Seed:          opts.Seed,
		Metrics:       opts.Metrics,
	}
	return p.Profile(conds), nil
}

// ModelOptions configures TrainHybrid.
type ModelOptions struct {
	// Train restricts training to these observations (default: all of
	// the dataset's).
	Train []Observation
	// SimQueries and SimReps size each prediction (defaults 4000/2).
	SimQueries int
	SimReps    int
	// Seed roots calibration, forest training and prediction.
	Seed uint64
	// Metrics receives calibration/training progress (nil uses
	// DefaultMetrics()); Tracer receives every prediction simulation's
	// per-query lifecycle events (nil disables tracing).
	Metrics *Metrics
	Tracer  QueryTracer
}

// TrainHybrid builds the paper's hybrid model from a profiled dataset:
// effective-sprint-rate calibration, a 10-tree random decision forest,
// and the timeout-aware queue simulator behind Predict.
func TrainHybrid(ds *Dataset, opts ModelOptions) (Model, error) {
	train := opts.Train
	if train == nil {
		train = ds.Observations
	}
	return core.TrainHybridCtx(
		context.Background(),
		[]core.TrainingSet{{Dataset: ds, Observations: train}},
		core.HybridOptions{
			Forest: forest.Config{Trees: 10, FeatureFrac: 0.9, Seed: opts.Seed + 7},
			Calib: calib.Options{
				NumQueries: 2500, Replications: 3,
				Tolerance: 0.025, Seed: opts.Seed + 101,
			},
			SimQueries: opts.SimQueries,
			SimReps:    opts.SimReps,
			Seed:       opts.Seed + 13,
			Metrics:    opts.Metrics,
			Tracer:     opts.Tracer,
		},
	)
}

// NewNoML returns the simulator-only baseline (marginal sprint rate in,
// response time out).
func NewNoML(seed uint64) Model {
	return &core.NoML{Seed: seed}
}

// BestTimeout anneals the timeout space (Section 4.2) against the model
// and returns the best timeout and its expected mean response time.
func BestTimeout(m Model, ds *Dataset, base Condition, maxTimeout float64, iters int, seed uint64) (timeout, meanRT float64, err error) {
	if maxTimeout <= 0 {
		maxTimeout = 300
	}
	if iters == 0 {
		iters = 200
	}
	// Prediction failures inside the annealing closure are remembered
	// and returned as an error; the closure itself reports +Inf so the
	// search simply avoids the failing point instead of crashing the
	// caller.
	var predErr error
	res, err := explore.MinimizeTimeout(func(to float64) float64 {
		cond := base
		cond.Timeout = to
		pred, perr := m.Predict(ds, core.Scenario{Cond: cond})
		if perr != nil {
			if predErr == nil {
				predErr = perr
			}
			return math.Inf(1)
		}
		return pred.MeanRT
	}, 0, maxTimeout, explore.Options{MaxIter: iters, Seed: seed})
	if predErr != nil {
		return 0, 0, fmt.Errorf("mdsprint: predicting during timeout search: %w", predErr)
	}
	if err != nil {
		return 0, 0, err
	}
	return res.Point[0], res.RT, nil
}

// SaveDataset persists a profiled dataset as JSON.
func SaveDataset(path string, ds *Dataset) error { return trace.SaveDataset(path, ds) }

// LoadDataset reads back a dataset written by SaveDataset.
func LoadDataset(path string) (*Dataset, error) { return trace.LoadDataset(path) }

// QPH converts queries/hour (the paper's unit) to this library's
// queries/second.
func QPH(qph float64) float64 { return sprint.QPH(qph) }

// ToQPH converts queries/second back to queries/hour.
func ToQPH(qps float64) float64 { return sprint.ToQPH(qps) }
