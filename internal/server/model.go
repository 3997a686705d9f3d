package server

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"mdsprint/internal/core"
	"mdsprint/internal/dist"
	"mdsprint/internal/online"
	"mdsprint/internal/profiler"
	"mdsprint/internal/queuesim"
	"mdsprint/internal/sweep"
	"mdsprint/internal/tier"
)

// SurfaceModel is a tenant's analytic performance model: it predicts
// the synthetic sprint surface (online.SurfaceRT) and carries runtime
// fault switches so chaos tests and the /v1/fault endpoint can script
// a diverged fit (bias), an outage (fail), a crashing model (panic) or
// a wedged one (delay) against a live tenant without restarting it.
// All switches are atomic: the caller holding the tenant's turn reads
// them while the test or fault endpoint flips them. The happy path allocates nothing.
type SurfaceModel struct {
	name            string
	mu, gain, sweet float64

	bias     atomic.Uint64 // Float64bits; 0 means unbiased
	failing  atomic.Bool
	panicky  atomic.Bool
	delay    atomic.Int64 // nanoseconds of injected stall per prediction
	predicts atomic.Uint64

	// est, when set, answers the unsaturated surface query through the
	// staged tier estimator: 1/(muEff - lambda) is exactly the M/M/1
	// mean, so the analytic tier serves it for free while the ladder
	// still accounts for the query (and escalates honestly near
	// saturation). The cached task keeps steady-state predictions —
	// the same (rate, timeout) operating point decision after decision
	// — allocation-free; it is touched only by the caller holding the
	// tenant's turn, like the controller itself.
	est        *tier.Estimator
	taskLambda uint64 // Float64bits of the cached task's arrival rate
	taskMuEff  uint64 // Float64bits of the cached task's service rate
	cached     sweep.Task
	haveTask   bool
}

// NewSurfaceModel returns an honest model of the surface with service
// rate mu, sprint gain and sweet-spot timeout.
func NewSurfaceModel(name string, mu, gain, sweet float64) *SurfaceModel {
	return &SurfaceModel{name: name, mu: mu, gain: gain, sweet: sweet}
}

// Name implements core.Model.
func (m *SurfaceModel) Name() string { return m.name }

// Predict implements core.Model, honoring whatever faults are scripted
// at call time.
func (m *SurfaceModel) Predict(_ *profiler.Dataset, sc core.Scenario) (core.Prediction, error) {
	m.predicts.Add(1)
	if d := m.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	if m.panicky.Load() {
		panic(fmt.Sprintf("server: model %s scripted panic", m.name))
	}
	if m.failing.Load() {
		return core.Prediction{}, fmt.Errorf("server: model %s scripted outage", m.name)
	}
	b := math.Float64frombits(m.bias.Load())
	if b <= 0 {
		b = 1
	}
	if m.est != nil {
		x := sc.Cond.Timeout / m.sweet
		if x < 0 {
			x = 0
		}
		muEff := m.mu * (1 + m.gain*x*math.Exp(1-x))
		if sc.ArrivalRate < 0.95*muEff {
			mean, _, err := m.est.MeanRT(m.task(sc.ArrivalRate, muEff))
			if err == nil {
				return core.Prediction{MeanRT: mean * b}, nil
			}
			// An estimator failure falls back to the closed form: the
			// surface is exact, the ladder is the accounting.
		}
	}
	rt := online.SurfaceRT(m.mu, m.gain, m.sweet, sc.ArrivalRate, sc.Cond.Timeout) * b
	return core.Prediction{MeanRT: rt}, nil
}

// SetTiers routes the model's unsaturated surface queries through a
// staged tier estimator. Call before the tenant starts serving.
func (m *SurfaceModel) SetTiers(est *tier.Estimator) { m.est = est }

// task returns the M/M/1 query for the (lambda, muEff) operating
// point, rebuilding the cached task only when the point moves — the
// steady-state decide loop revisits one point, so this path performs
// no allocations after the first visit.
func (m *SurfaceModel) task(lambda, muEff float64) sweep.Task {
	lb, mb := math.Float64bits(lambda), math.Float64bits(muEff)
	if !m.haveTask || m.taskLambda != lb || m.taskMuEff != mb {
		m.cached = sweep.Task{Params: queuesim.Params{
			ArrivalRate: lambda,
			Service:     dist.NewExponential(muEff),
			ServiceRate: muEff,
			Timeout:     -1,
			NumQueries:  4000,
			Seed:        1,
		}, Reps: 2}
		m.taskLambda, m.taskMuEff, m.haveTask = lb, mb, true
	}
	return m.cached
}

// SetBias scales predictions by b (≤ 0 restores honesty) — a diverged
// fit that still answers.
func (m *SurfaceModel) SetBias(b float64) { m.bias.Store(math.Float64bits(b)) }

// SetFailing scripts every prediction to error — a model outage.
func (m *SurfaceModel) SetFailing(v bool) { m.failing.Store(v) }

// SetPanicky scripts every prediction to panic — the bulkhead test.
func (m *SurfaceModel) SetPanicky(v bool) { m.panicky.Store(v) }

// SetDelay scripts a stall of d per prediction — the wedged-model test.
func (m *SurfaceModel) SetDelay(d time.Duration) { m.delay.Store(int64(d)) }

// Predicts reports how many predictions the model has served.
func (m *SurfaceModel) Predicts() uint64 { return m.predicts.Load() }

// scriptFault applies one named fault mode, the shared vocabulary of
// the /v1/fault endpoint and the chaos scenarios.
func (m *SurfaceModel) scriptFault(mode string, value float64) error {
	switch mode {
	case "bias":
		m.SetBias(value)
	case "fail":
		//lint:ignore floateq the fault value is a boolean flag: exactly 0 means off
		m.SetFailing(value != 0)
	case "panic":
		//lint:ignore floateq the fault value is a boolean flag: exactly 0 means off
		m.SetPanicky(value != 0)
	case "delay":
		m.SetDelay(time.Duration(value * float64(time.Second)))
	case "clear":
		m.SetBias(0)
		m.SetFailing(false)
		m.SetPanicky(false)
		m.SetDelay(0)
	default:
		return fmt.Errorf("server: unknown fault mode %q (bias, fail, panic, delay, clear)", mode)
	}
	return nil
}
