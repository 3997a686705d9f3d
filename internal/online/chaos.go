package online

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"mdsprint/internal/core"
	"mdsprint/internal/dist"
	"mdsprint/internal/fault"
	"mdsprint/internal/obs"
	"mdsprint/internal/profiler"
)

// ChaosOptions tunes a chaos replay. The zero value is a complete,
// sensibly tuned configuration.
type ChaosOptions struct {
	// ServiceRate is the synthetic queue's sustained service rate mu in
	// queries/second (default 1). BaseRate is the scenario's nominal
	// arrival rate (default 0.7), scaled per phase by RateFactor.
	ServiceRate float64
	BaseRate    float64
	// SprintGain and SweetTimeout shape the ground-truth response-time
	// surface: sprinting boosts the effective service rate by up to
	// SprintGain, peaking when the timeout sits at SweetTimeout seconds
	// (defaults 0.8 and 20).
	SprintGain   float64
	SweetTimeout float64
	// MaxTimeout bounds the timeout search (default 60 s).
	MaxTimeout float64
	// StepSeconds is the virtual-time length of one control step
	// (default 4 s).
	StepSeconds float64
	// AnnealIter sizes each retune search (default 30).
	AnnealIter int
	// EstimatorWindow and EstimatorAlpha configure the arrival-rate
	// estimator (defaults 60 s and 0.3).
	EstimatorWindow float64
	EstimatorAlpha  float64
	// RetuneThreshold is the relative rate drift that triggers a retune
	// (default 0.15).
	RetuneThreshold float64
	// Watchdog tunes the degradation watchdogs (zero values take the
	// watchdog defaults).
	Watchdog WatchdogConfig
	// Metrics receives controller and injector metrics; nil records
	// into obs.Default().
	Metrics *obs.Registry
	// Ledger, when set, receives every selection's DecisionRecord,
	// stamped with the replay's virtual time. May be nil.
	Ledger *DecisionLedger
}

func (o ChaosOptions) withDefaults() ChaosOptions {
	if o.ServiceRate <= 0 {
		o.ServiceRate = 1
	}
	if o.BaseRate <= 0 {
		o.BaseRate = 0.7 * o.ServiceRate
	}
	if o.SprintGain <= 0 {
		o.SprintGain = 0.8
	}
	if o.SweetTimeout <= 0 {
		o.SweetTimeout = 20
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 60
	}
	if o.StepSeconds <= 0 {
		o.StepSeconds = 4
	}
	if o.AnnealIter <= 0 {
		o.AnnealIter = 30
	}
	if o.EstimatorWindow <= 0 {
		o.EstimatorWindow = 60
	}
	if o.EstimatorAlpha <= 0 {
		o.EstimatorAlpha = 0.3
	}
	return o
}

// SurfaceRT is the ground-truth response-time surface of the synthetic
// queue used by the chaos replays and the serving daemon's analytic
// tenant models: M/M/1-shaped, with a timeout-dependent sprint boost
// on the effective service rate that peaks at the sweet spot (x·e^(1−x)
// is 1 at x=1). Saturated arrivals clamp to the heavy-traffic response
// time so the surface stays finite under burst storms.
func SurfaceRT(mu, gain, sweet, lambda, to float64) float64 {
	x := to / sweet
	if x < 0 {
		x = 0
	}
	muEff := mu * (1 + gain*x*math.Exp(1-x))
	if lambda >= 0.95*muEff {
		return 20 / muEff
	}
	return 1 / (muEff - lambda)
}

// chaosModel is an analytic stand-in for a trained model: it predicts
// the ground-truth surface scaled by a phase-scripted bias (1, or 0,
// means honest; far from 1 models a diverged fit). The shared pointers
// let the replay re-script the bias — or an outright outage — between
// phases.
type chaosModel struct {
	name            string
	mu, gain, sweet float64
	bias            *float64
	fail            *bool
}

// Name implements core.Model.
func (m chaosModel) Name() string { return m.name }

// Predict implements core.Model on the synthetic surface.
func (m chaosModel) Predict(_ *profiler.Dataset, sc core.Scenario) (core.Prediction, error) {
	if m.fail != nil && *m.fail {
		return core.Prediction{}, fmt.Errorf("online: chaos model %s scripted outage", m.name)
	}
	b := *m.bias
	if b <= 0 {
		b = 1
	}
	rt := SurfaceRT(m.mu, m.gain, m.sweet, sc.ArrivalRate, sc.Cond.Timeout) * b
	return core.Prediction{MeanRT: rt}, nil
}

// ChaosStep is one control step of a replay timeline.
type ChaosStep struct {
	Step          int
	Phase         string
	Level         Level
	Timeout       float64
	EstimatedRate float64
	RealizedRate  float64
	ObservedRT    float64
}

// ChaosResult is a completed replay: the full decision timeline plus
// the degradation summary the scenario's expectations are checked
// against.
type ChaosResult struct {
	Scenario   string
	Seed       uint64
	Steps      []ChaosStep
	MaxLevel   Level
	EndLevel   Level
	Demotions  int
	Promotions int
}

// Fingerprint hashes the controller's decision timeline (level, timeout,
// rate estimate and observation per step). Two replays of one scenario
// must produce identical fingerprints — the determinism contract the
// chaos tests assert.
func (r *ChaosResult) Fingerprint() string {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		//lint:ignore errdrop fnv's Write is documented to never fail
		_, _ = h.Write(buf[:])
	}
	for _, s := range r.Steps {
		word(uint64(s.Level))
		word(math.Float64bits(s.Timeout))
		word(math.Float64bits(s.EstimatedRate))
		word(math.Float64bits(s.ObservedRT))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Violations checks the replay against the scenario's expectations and
// returns a description of each breach (empty means the controller
// behaved).
func (r *ChaosResult) Violations(sc fault.Scenario) []string {
	var out []string
	if int(r.MaxLevel) != sc.Expect.MaxLevel {
		out = append(out, fmt.Sprintf("max degradation level %s (%d), expected %d",
			r.MaxLevel, int(r.MaxLevel), sc.Expect.MaxLevel))
	}
	if int(r.EndLevel) != sc.Expect.EndLevel {
		out = append(out, fmt.Sprintf("ended at level %s (%d), expected %d",
			r.EndLevel, int(r.EndLevel), sc.Expect.EndLevel))
	}
	return out
}

// RunChaos replays a fault scenario against a FallbackController in
// virtual time: a synthetic Poisson arrival stream (perturbed by the
// scenario's burst injection) feeds the rate estimator, the controller
// picks timeouts, and observed response times come from the ground-truth
// surface under scripted model bias and multiplicative noise. The whole
// replay is a deterministic function of the scenario seed.
func RunChaos(sc fault.Scenario, opt ChaosOptions) (*ChaosResult, error) {
	o := opt.withDefaults()
	if len(sc.Phases) == 0 {
		return nil, fmt.Errorf("online: scenario %q has no phases", sc.Name)
	}

	mu := o.ServiceRate
	primaryBias, fallbackBias := 1.0, 1.0
	primaryFail := false
	primary := chaosModel{name: "chaos-primary", mu: mu, gain: o.SprintGain, sweet: o.SweetTimeout, bias: &primaryBias, fail: &primaryFail}
	fallbck := chaosModel{name: "chaos-fallback", mu: mu, gain: o.SprintGain, sweet: o.SweetTimeout, bias: &fallbackBias}

	// The retune breaker trips on the first failed search: a scripted
	// outage makes every primary prediction error, so the breaker opens
	// immediately and the chain's demote-and-retry takes over. Healthy
	// scenarios never fail a search, so a closed breaker is
	// behaviour-neutral and existing fingerprints are unchanged.
	fc, err := NewFallbackController(FallbackConfig{
		Primary:         primary,
		Fallback:        fallbck,
		Dataset:         &profiler.Dataset{ServiceRate: mu, MarginalRate: mu * (1 + o.SprintGain)},
		MaxTimeout:      o.MaxTimeout,
		AnnealIter:      o.AnnealIter,
		Seed:            sc.Seed,
		RetuneThreshold: o.RetuneThreshold,
		Watchdog:        o.Watchdog,
		Metrics:         o.Metrics,
		Breaker: fault.NewBreaker(fault.BreakerConfig{
			Name:             "chaos-retune",
			FailureThreshold: 1,
			Metrics:          o.Metrics,
		}),
		Ledger: o.Ledger,
	})
	if err != nil {
		return nil, err
	}

	est, err := NewRateEstimator(o.EstimatorWindow, o.EstimatorAlpha)
	if err != nil {
		return nil, err
	}
	// realized tracks the post-perturbation arrival rate with no
	// smoothing: the "true" load observations are generated under.
	realized, err := NewRateEstimator(o.EstimatorWindow, 0)
	if err != nil {
		return nil, err
	}

	root := dist.NewRNG(sc.Seed ^ 0xc4a05c7a11e57a1e)
	arrivalRNG := root.Split()
	noiseRNG := root.Split()

	res := &ChaosResult{Scenario: sc.Name, Seed: sc.Seed}
	now := 0.0
	nextArrival := math.Inf(1) // armed per phase below
	step := 0
	for pi, ph := range sc.Phases {
		rateFactor := ph.RateFactor
		if rateFactor <= 0 {
			rateFactor = 1
		}
		lambda := o.BaseRate * rateFactor
		primaryBias = ph.PrimaryBias
		fallbackBias = ph.FallbackBias
		primaryFail = ph.PrimaryFail
		noiseCV := ph.NoiseCV
		if noiseCV <= 0 {
			noiseCV = 0.05
		}
		perturb := fault.NewArrivalFaults(fault.ArrivalFaultConfig{
			Seed:      sc.Seed + uint64(pi)*0x9e3779b97f4a7c15,
			BurstProb: ph.BurstProb,
			BurstSize: ph.BurstSize,
			Metrics:   o.Metrics,
		})
		nextArrival = now + arrivalRNG.ExpFloat64()/lambda
		for s := 0; s < ph.Steps; s++ {
			stepEnd := now + o.StepSeconds
			var batch []float64
			for nextArrival < stepEnd {
				batch = append(batch, nextArrival)
				nextArrival += arrivalRNG.ExpFloat64() / lambda
			}
			for _, t := range perturb.Perturb(batch) {
				est.Observe(t)
				realized.Observe(t)
			}
			now = stepEnd

			rate := est.Rate(now)
			if rate <= 0 {
				rate = lambda // estimator not warmed up yet
			}
			to, err := fc.TimeoutCtx(context.Background(), rate)
			if err != nil {
				return nil, fmt.Errorf("online: chaos %q step %d: %w", sc.Name, step, err)
			}
			real := realized.Rate(now)
			if real <= 0 {
				real = lambda
			}
			truth := SurfaceRT(mu, o.SprintGain, o.SweetTimeout, real, to)
			sigma := noiseCV
			observed := truth * math.Exp(sigma*noiseRNG.NormFloat64()-sigma*sigma/2)
			// Health verdicts start after the estimator's first full
			// window: before that, estimate-vs-realized mismatch is a
			// warmup artifact, not evidence about the model.
			if now >= o.EstimatorWindow {
				fc.Observe(rate, observed)
			}

			lvl := fc.Level()
			if lvl > res.MaxLevel {
				res.MaxLevel = lvl
			}
			res.Steps = append(res.Steps, ChaosStep{
				Step:          step,
				Phase:         ph.Name,
				Level:         lvl,
				Timeout:       to,
				EstimatedRate: rate,
				RealizedRate:  real,
				ObservedRT:    observed,
			})
			o.Ledger.StampVirtual(now)
			step++
		}
	}
	res.EndLevel = fc.Level()
	res.Demotions, res.Promotions = fc.Counts()
	return res, nil
}
