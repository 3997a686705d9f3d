package main

import (
	"context"
	"fmt"
	"time"

	"mdsprint/internal/ann"
	"mdsprint/internal/calib"
	"mdsprint/internal/core"
	"mdsprint/internal/experiments"
	"mdsprint/internal/forest"
	"mdsprint/internal/mech"
	"mdsprint/internal/obs"
	"mdsprint/internal/profiler"
	"mdsprint/internal/sweep"
	"mdsprint/internal/workload"
)

// This file holds what the fig7 and policy workloads share: the
// experiments.Lab settings they replicate, the counters they read
// around each unit and the per-layer metrics built from them.

// labProfiler is the profiler experiments.Lab.Dataset uses for a mix on
// DVFS over the paper grid at scale s, with the seed it derives from
// the dataset's key.
func labProfiler(s experiments.Scale, mix workload.Mix) *profiler.Profiler {
	key := fmt.Sprintf("%s|%s|%s", mix.Name, mech.DVFS{}.Name(), "paper")
	var h uint64 = 14695981039346656037
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return &profiler.Profiler{
		Mix: mix, Mechanism: mech.DVFS{}, QueriesPerRun: s.ProfQueries,
		Replications: 2, Seed: s.Seed + h%100000,
	}
}

// hybridOptions and annConfig are experiments.Lab's settings at scale s,
// with every simulation routed through eng.
func hybridOptions(s experiments.Scale, eng *sweep.Engine) core.HybridOptions {
	return core.HybridOptions{
		Forest: forest.Config{Trees: 10, FeatureFrac: 0.9, Seed: s.Seed + 7},
		Calib: calib.Options{
			NumQueries: s.CalibQueries, Replications: 3, Tolerance: 0.025,
			Seed: s.Seed + 101, Engine: eng,
		},
		SimQueries: s.SimQueries, SimReps: s.SimReps, Seed: s.Seed + 13,
		Engine: eng,
	}
}

func annConfig(s experiments.Scale) ann.Config {
	return ann.Config{HiddenLayers: 10, Width: 100, Epochs: s.ANNEpochs, Seed: s.Seed + 17}
}

// layerCounters are the obs.Default() counters the reproduction
// workloads read around each unit.
var layerCounters = []string{
	"mdsprint_profiler_runs_total",
	"mdsprint_calib_sim_evals_total",
	"mdsprint_calib_records_total",
	"mdsprint_calib_converged_total",
	"mdsprint_sim_events_total",
	"mdsprint_online_retunes_total",
	"mdsprint_online_demotions_total",
}

// counterDelta accumulates obs.Default() counter movement over units,
// plus the simulator's run-seconds sum.
type counterDelta struct {
	sum    map[string]float64
	before map[string]float64
}

func (c *counterDelta) mark() {
	c.before = readCounters()
}

func (c *counterDelta) add() {
	after := readCounters()
	if c.sum == nil {
		c.sum = make(map[string]float64)
	}
	for k, v := range after {
		c.sum[k] += v - c.before[k]
	}
}

func readCounters() map[string]float64 {
	reg := obs.Default()
	out := make(map[string]float64, len(layerCounters)+1)
	for _, name := range layerCounters {
		v, _ := reg.Value(name)
		out[name] = v
	}
	out["sim_run_seconds"] = reg.Histogram("mdsprint_sim_run_seconds", "wall-clock seconds per simulator run", 0).Snapshot().Sum
	return out
}

// reproLayers fills the per-layer metrics the fig7 and policy workloads
// share, per unit of work.
func reproLayers(units int, c *counterDelta, st sweep.Stats, tr *tracer, traced int, out map[string]float64) {
	per := func(v float64) float64 { return v / float64(units) }
	perTraced := func(ns int64) float64 {
		if traced == 0 {
			return 0
		}
		return float64(ns) / 1e9 / float64(traced)
	}
	out["profiler.busy_s"] = perTraced(tr.layer("profiler").BusyNS)
	out["profiler.runs"] = per(c.sum["mdsprint_profiler_runs_total"])
	out["calib.busy_s"] = perTraced(tr.layer("calib").BusyNS)
	out["calib.self_s"] = perTraced(tr.layer("calib").SelfNS)
	out["calib.sim_evals"] = per(c.sum["mdsprint_calib_sim_evals_total"])
	if recs := c.sum["mdsprint_calib_records_total"]; recs > 0 {
		out["calib.converged_ratio"] = c.sum["mdsprint_calib_converged_total"] / recs
	}
	out["forest.busy_s"] = perTraced(tr.layer("forest").BusyNS)
	out["core.busy_s"] = perTraced(tr.layer("core").BusyNS)
	out["sweep.self_s"] = perTraced(tr.layer("sweep").SelfNS)
	out["sweep.tasks"] = per(float64(st.Tasks))
	out["sweep.evals"] = per(float64(st.Evals))
	out["sweep.hit_ratio"] = st.HitRate()
	events := c.sum["mdsprint_sim_events_total"]
	out["queuesim.events"] = per(events)
	if events > 0 {
		out["queuesim.ns_per_event"] = c.sum["sim_run_seconds"] * 1e9 / events
	}
	out["online.retunes"] = per(c.sum["mdsprint_online_retunes_total"])
	out["online.demotions"] = per(c.sum["mdsprint_online_demotions_total"])
}

// addStats sums two engine snapshots' traffic counters.
func addStats(a, b sweep.Stats) sweep.Stats {
	a.Tasks += b.Tasks
	a.Evals += b.Evals
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Bypasses += b.Bypasses
	return a
}

// profile runs one profiler pass under a profiler.profile span.
func profile(ctx context.Context, tr *tracer, p *profiler.Profiler, conds []profiler.Condition) *profiler.Dataset {
	_, sp := tr.start(ctx, "profiler.profile")
	defer sp.End()
	return p.Profile(conds)
}

// elapsed is time.Since in seconds.
func elapsed(t time.Time) float64 { return time.Since(t).Seconds() }
