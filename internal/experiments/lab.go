// Package experiments regenerates every table and figure in the paper's
// evaluation (Sections 3 and 4). Each figure has one entry point taking a
// Lab, which caches profiled datasets and trained models so related
// experiments share work. The Scale knob switches between Quick (unit
// tests, seconds) and Full (cmd/benchgen, the numbers recorded in
// EXPERIMENTS.md).
//
// Absolute response times come from this repository's simulated testbed,
// so results are compared to the paper by shape: who wins, by what
// factor, and where crossovers fall. See EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"mdsprint/internal/ann"
	"mdsprint/internal/calib"
	"mdsprint/internal/core"
	"mdsprint/internal/forest"
	"mdsprint/internal/mech"
	"mdsprint/internal/profiler"
	"mdsprint/internal/sweep"
	"mdsprint/internal/workload"
)

// Scale sizes every experiment.
type Scale struct {
	Name string
	// ProfQueries is the testbed queries per profiling run.
	ProfQueries int
	// GridSamples is the number of cluster-sampling conditions profiled
	// per dataset.
	GridSamples int
	// CalibQueries sizes each calibration simulation.
	CalibQueries int
	// SimQueries and SimReps size each model prediction.
	SimQueries int
	SimReps    int
	// ANNEpochs bounds ANN training.
	ANNEpochs int
	// AnnealIter bounds policy-search annealing.
	AnnealIter int
	// Workloads lists the Table 1C classes exercised by the multi-
	// workload experiments (Figures 7, 8, 10).
	Workloads []string
	// Seed roots all randomness.
	Seed uint64
}

// Quick is the test-sized scale: every experiment runs in seconds.
func Quick() Scale {
	return Scale{
		Name:        "quick",
		ProfQueries: 800, GridSamples: 32, CalibQueries: 1500,
		SimQueries: 2000, SimReps: 2, ANNEpochs: 250, AnnealIter: 30,
		// Leuk (the paper's hardest workload for the hybrid model,
		// Section 3.2) is exercised at Full scale; Quick pairs the
		// canonical kernel with a Spark service.
		Workloads: []string{"Jacobi", "SparkKmeans"},
		Seed:      1,
	}
}

// Full is the benchgen scale used for the EXPERIMENTS.md record.
func Full() Scale {
	return Scale{
		Name:        "full",
		ProfQueries: 2000, GridSamples: 140, CalibQueries: 3000,
		SimQueries: 4000, SimReps: 3, ANNEpochs: 600, AnnealIter: 80,
		Workloads: []string{"SparkStream", "SparkKmeans", "Jacobi", "KNN", "BFS", "Mem", "Leuk"},
		Seed:      1,
	}
}

// Lab caches profiled datasets, splits and trained models across
// experiments, and owns the sweep engine their simulator evaluations
// share: calibration, model predictions and policy scoring all memoize
// into one pool, so experiments that revisit conditions (Figures 10,
// 12-13 and the cluster in/out study) pay for each point once.
type Lab struct {
	Scale Scale

	engine   *sweep.Engine
	mu       sync.Mutex
	datasets map[string]*profiler.Dataset
	hybrids  map[string]*core.Hybrid
}

// NewLab returns an empty lab at the given scale.
func NewLab(s Scale) *Lab {
	return &Lab{
		Scale:    s,
		engine:   sweep.New(sweep.Options{}),
		datasets: make(map[string]*profiler.Dataset),
		hybrids:  make(map[string]*core.Hybrid),
	}
}

// Engine exposes the lab's shared policy-sweep engine.
func (l *Lab) Engine() *sweep.Engine { return l.engine }

// calibOptions derives the lab's calibration settings. The tolerance sits
// above the measurement noise of the profiling runs so that conditions
// whose response time is insensitive to the sprint rate calibrate to
// mu_m itself (Equation 2's minimal |x|) instead of wandering.
func (l *Lab) calibOptions() calib.Options {
	return calib.Options{
		NumQueries:   l.Scale.CalibQueries,
		Replications: 3,
		Tolerance:    0.025,
		Seed:         l.Scale.Seed + 101,
		Engine:       l.engine,
	}
}

// hybridOptions derives the lab's hybrid-model settings.
func (l *Lab) hybridOptions() core.HybridOptions {
	return core.HybridOptions{
		// Ten trees per the paper; with ~11 features and modest
		// training sets, aggressive feature subsetting lets trees
		// miss load-bearing features (utilization, arrival family),
		// so each tree keeps most of them.
		Forest:     forest.Config{Trees: 10, FeatureFrac: 0.9, Seed: l.Scale.Seed + 7},
		Calib:      l.calibOptions(),
		SimQueries: l.Scale.SimQueries,
		SimReps:    l.Scale.SimReps,
		Seed:       l.Scale.Seed + 13,
		Engine:     l.engine,
	}
}

// annConfig is the Table 1(A) baseline architecture, epoch-bounded by the
// scale.
func (l *Lab) annConfig() ann.Config {
	return ann.Config{
		HiddenLayers: 10, Width: 100,
		Epochs: l.Scale.ANNEpochs, Seed: l.Scale.Seed + 17,
	}
}

// datasetKey identifies a cached dataset.
func datasetKey(mix workload.Mix, m mech.Mechanism, grid string) string {
	return fmt.Sprintf("%s|%s|%s", mix.Name, m.Name(), grid)
}

// Dataset profiles (or returns the cached profile of) a mix on a
// mechanism over the paper grid, sampled to the scale's budget.
func (l *Lab) Dataset(mix workload.Mix, m mech.Mechanism) *profiler.Dataset {
	return l.DatasetWithGrid(mix, m, "paper", profiler.PaperGrid())
}

// DatasetWithGrid profiles with a caller-chosen grid (Figure 8C's dense
// core-scaling study).
func (l *Lab) DatasetWithGrid(mix workload.Mix, m mech.Mechanism, gridName string, grid profiler.Grid) *profiler.Dataset {
	key := datasetKey(mix, m, gridName)
	l.mu.Lock()
	if ds, ok := l.datasets[key]; ok {
		l.mu.Unlock()
		return ds
	}
	l.mu.Unlock()
	p := &profiler.Profiler{
		Mix:           mix,
		Mechanism:     m,
		QueriesPerRun: l.Scale.ProfQueries,
		Replications:  2,
		Seed:          l.Scale.Seed + hashString(key),
	}
	conds := grid.Sample(l.Scale.GridSamples, l.Scale.Seed+3)
	ds := p.Profile(conds)
	l.mu.Lock()
	l.datasets[key] = ds
	l.mu.Unlock()
	return ds
}

// Split returns the dataset's observations partitioned with the given
// train fraction, deterministically.
func (l *Lab) Split(ds *profiler.Dataset, trainFrac float64) (train, test []profiler.Observation) {
	return profiler.SplitObservations(ds.Observations, trainFrac, l.Scale.Seed+29)
}

// Hybrid trains (or returns the cached) hybrid model for one dataset and
// training split.
func (l *Lab) Hybrid(ds *profiler.Dataset, train []profiler.Observation, tag string) (*core.Hybrid, error) {
	key := fmt.Sprintf("%s|%s|%s|%d", ds.MixName, ds.MechName, tag, len(train))
	l.mu.Lock()
	if h, ok := l.hybrids[key]; ok {
		l.mu.Unlock()
		return h, nil
	}
	l.mu.Unlock()
	h, err := core.TrainHybridCtx(
		context.Background(),
		[]core.TrainingSet{{Dataset: ds, Observations: train}},
		l.hybridOptions(),
	)
	if err != nil {
		return nil, fmt.Errorf("experiments: training hybrid for %s/%s: %w", ds.MixName, ds.MechName, err)
	}
	l.mu.Lock()
	l.hybrids[key] = h
	l.mu.Unlock()
	return h, nil
}

// NoML returns the simulator-only baseline sized to the lab.
func (l *Lab) NoML() *core.NoML {
	return &core.NoML{
		SimQueries: l.Scale.SimQueries,
		SimReps:    l.Scale.SimReps,
		Seed:       l.Scale.Seed + 13,
	}
}

// ANN trains the direct-mapping baseline on one dataset split.
func (l *Lab) ANN(ds *profiler.Dataset, train []profiler.Observation) (*core.ANN, error) {
	return core.TrainANN([]core.TrainingSet{{Dataset: ds, Observations: train}}, l.annConfig())
}

// Classes resolves the scale's workload list.
func (l *Lab) Classes() []*workload.Class {
	out := make([]*workload.Class, 0, len(l.Scale.Workloads))
	for _, name := range l.Scale.Workloads {
		out = append(out, workload.MustByName(name))
	}
	return out
}

// hashString is a small FNV-style hash for seed derivation.
func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h % 100000
}
