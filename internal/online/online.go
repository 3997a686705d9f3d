// Package online addresses the paper's Section 5 open challenge:
// estimating runtime conditions online and applying the performance model
// to noisy estimates. It provides sliding-window and exponentially
// weighted arrival-rate estimators and an adaptive policy controller that
// re-selects the sprint timeout whenever the estimated conditions drift.
package online

import (
	"context"
	"errors"
	"fmt"
	"math"

	"mdsprint/internal/core"
	"mdsprint/internal/explore"
	"mdsprint/internal/fault"
	"mdsprint/internal/obs"
	"mdsprint/internal/profiler"
)

// ErrInvalidRate reports an arrival-rate estimate that is not a finite
// positive number. It is the caller's input error, not a model failure:
// no search runs, and a FallbackController neither demotes nor records a
// decision.
var ErrInvalidRate = errors.New("online: rate estimate must be finite and positive")

// checkRate returns an error wrapping ErrInvalidRate unless rate is
// finite and positive.
func checkRate(rate float64) error {
	if rate > 0 && !math.IsInf(rate, 1) {
		return nil
	}
	return fmt.Errorf("%w, got %v", ErrInvalidRate, rate)
}

// RateEstimator estimates an arrival rate from observed arrival
// timestamps over a sliding window, optionally smoothed with an EWMA.
// It is not safe for concurrent use.
type RateEstimator struct {
	window float64
	alpha  float64 // EWMA weight per update; 0 disables smoothing

	times []float64 // arrivals within the window, ascending
	ewma  float64
	init  bool
}

// NewRateEstimator returns an estimator over the given window (seconds).
// alpha in [0, 1) blends each new windowed estimate into an EWMA; 0 uses
// the raw windowed rate. The window must be positive and finite.
func NewRateEstimator(window, alpha float64) (*RateEstimator, error) {
	if !(window > 0) || math.IsInf(window, 1) {
		return nil, fmt.Errorf("online: NewRateEstimator window %v must be positive and finite", window)
	}
	if !(alpha >= 0 && alpha < 1) {
		return nil, fmt.Errorf("online: NewRateEstimator alpha %v must be in [0, 1)", alpha)
	}
	return &RateEstimator{window: window, alpha: alpha}, nil
}

// MustRateEstimator is NewRateEstimator for statically known arguments;
// it panics on invalid ones.
func MustRateEstimator(window, alpha float64) *RateEstimator {
	e, err := NewRateEstimator(window, alpha)
	if err != nil {
		panic(err.Error())
	}
	return e
}

// Observe records one arrival at time t. Real clocks misbehave, so the
// estimator tolerates adversarial input instead of panicking: non-finite
// timestamps are ignored, and a timestamp regressing behind the last
// arrival is clamped to it (observed as a simultaneous arrival).
func (e *RateEstimator) Observe(t float64) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return
	}
	if n := len(e.times); n > 0 && t < e.times[n-1] {
		t = e.times[n-1]
	}
	e.times = append(e.times, t)
	e.trim(t)
	raw := e.windowedRate(t)
	if !e.init {
		// Seed the EWMA from the first estimate backed by at least
		// one complete inter-arrival gap.
		if len(e.times) >= 2 {
			e.ewma = raw
			e.init = true
		}
		return
	}
	if e.alpha > 0 {
		e.ewma = e.alpha*e.ewma + (1-e.alpha)*raw
	} else {
		e.ewma = raw
	}
}

// trim drops arrivals older than the window.
func (e *RateEstimator) trim(now float64) {
	cut := 0
	for cut < len(e.times) && e.times[cut] < now-e.window {
		cut++
	}
	if cut > 0 {
		e.times = append(e.times[:0], e.times[cut:]...)
	}
}

// windowedRate is the raw arrivals-per-second over the trailing window.
// Early in the stream, before the window fills, the rate is estimated
// from the inter-arrival span of the observations seen so far; a single
// observation is not enough to estimate anything beyond a floor.
func (e *RateEstimator) windowedRate(now float64) float64 {
	n := len(e.times)
	if n < 2 {
		return float64(n) / e.window
	}
	span := now - e.times[0]
	if span >= e.window {
		return float64(n) / e.window
	}
	// n arrivals over a partial span: n-1 complete inter-arrival gaps.
	return float64(n-1) / math.Max(span, e.window/1e6)
}

// Rate returns the current estimate at time now. A non-finite now is
// replaced by the last observed arrival time, so the estimate stays
// finite whatever the caller's clock reports.
func (e *RateEstimator) Rate(now float64) float64 {
	if math.IsNaN(now) || math.IsInf(now, 0) {
		if len(e.times) == 0 {
			return 0
		}
		now = e.times[len(e.times)-1]
	}
	e.trim(now)
	if len(e.times) == 0 {
		return 0
	}
	if e.alpha > 0 && e.init {
		return e.ewma
	}
	return e.windowedRate(now)
}

// Observations returns how many arrivals are inside the window.
func (e *RateEstimator) Observations() int { return len(e.times) }

// Controller re-selects the sprint timeout with a performance model
// whenever the estimated arrival rate drifts by more than
// RetuneThreshold (relative).
type Controller struct {
	// Model predicts response time against Dataset.
	Model   core.Model
	Dataset *profiler.Dataset
	// Base is the policy template; the controller tunes its timeout.
	Base profiler.Condition
	// MaxTimeout bounds the search (seconds).
	MaxTimeout float64
	// AnnealIter and Seed drive the annealing search.
	AnnealIter int
	Seed       uint64
	// RetuneThreshold is the relative rate drift that triggers a new
	// search (default 0.15).
	RetuneThreshold float64
	// Metrics records each re-selection decision (old timeout, new
	// timeout, estimated rate, retune count); nil records into
	// obs.Default() so adaptive-control behaviour is inspectable from
	// sprintctl's debug endpoints.
	Metrics *obs.Registry
	// Breaker, when set, circuit-breaks the model-driven search: while
	// open, a drifted estimate keeps the current timeout instead of
	// re-annealing, and search failures/successes feed the breaker. May
	// be nil.
	Breaker *fault.Breaker
	// Clock times the annealing searches for decision provenance; nil
	// uses the real clock.
	Clock obs.Clock

	tunedRate    float64
	currentTO    float64
	haveDecision bool
	retunes      int
	lastPredRT   float64
}

// tierInfo is the provenance of one tier-level timeout answer.
type tierInfo struct {
	// PredictedRT is the model's expected mean RT at the returned
	// timeout (carried over from the last search when the decision is
	// cached).
	PredictedRT float64
	// Retuned reports whether this answer ran a fresh annealing search;
	// SearchNanos is that search's wall time (0 when cached).
	Retuned     bool
	SearchNanos int64
}

// recordDecision publishes one re-selection to the metrics registry.
func (c *Controller) recordDecision(oldTO, newTO, rate float64, first bool) {
	reg := obs.Or(c.Metrics)
	reg.Counter("mdsprint_online_retunes_total", "model-driven timeout re-selections").Inc()
	if !first {
		reg.Gauge("mdsprint_online_prev_timeout_seconds", "timeout in force before the last re-selection").Set(oldTO)
	}
	reg.Gauge("mdsprint_online_timeout_seconds", "timeout selected by the last re-selection").Set(newTO)
	reg.Gauge("mdsprint_online_estimated_rate_qps", "arrival-rate estimate that drove the last re-selection").Set(rate)
}

// Timeout returns the controller's current timeout for the estimated
// arrival rate, re-running the model-driven search if the estimate has
// drifted beyond the threshold since the last decision.
func (c *Controller) Timeout(estimatedRate float64) (float64, error) {
	to, _, err := c.timeout(context.Background(), estimatedRate)
	return to, err
}

// timeout is Timeout's body, additionally reporting the decision's
// provenance (predicted RT, whether a search ran, its wall time). The
// context carries the caller's span, so a context-aware model's
// prediction spans nest under the decision instead of floating as
// roots.
func (c *Controller) timeout(ctx context.Context, estimatedRate float64) (float64, tierInfo, error) {
	if err := checkRate(estimatedRate); err != nil {
		return 0, tierInfo{}, err
	}
	thr := c.RetuneThreshold
	if thr <= 0 {
		thr = 0.15
	}
	if c.haveDecision && math.Abs(estimatedRate-c.tunedRate)/c.tunedRate <= thr {
		return c.currentTO, tierInfo{PredictedRT: c.lastPredRT}, nil
	}
	// An open breaker suppresses the search: ride the current decision
	// (degraded but safe) rather than re-annealing with a model that has
	// been failing.
	if c.Breaker != nil && !c.Breaker.Allow() {
		if c.haveDecision {
			return c.currentTO, tierInfo{PredictedRT: c.lastPredRT}, nil
		}
		return 0, tierInfo{}, fmt.Errorf("online: retune breaker open before any decision")
	}
	maxTO := c.MaxTimeout
	if maxTO <= 0 {
		maxTO = 300
	}
	iter := c.AnnealIter
	if iter == 0 {
		iter = 60
	}
	// A prediction failure inside the annealing closure is remembered
	// and surfaced as an error, never a panic (the closure's signature
	// has no error channel, so failures poison the point with +Inf).
	clk := obs.ClockOr(c.Clock)
	searchStart := clk.Now()
	var predErr error
	res, err := explore.MinimizeTimeout(func(to float64) float64 {
		cond := c.Base
		cond.Timeout = to
		pred, perr := core.Predict(ctx, c.Model, c.Dataset, core.Scenario{
			Cond:        cond,
			ArrivalRate: estimatedRate,
		})
		if perr != nil {
			if predErr == nil {
				predErr = perr
			}
			return math.Inf(1)
		}
		return pred.MeanRT
	}, 0, maxTO, explore.Options{MaxIter: iter, Seed: c.Seed + uint64(c.retunes)})
	searchNanos := clk.Now().Sub(searchStart).Nanoseconds()
	if predErr != nil {
		c.reportSearch(false)
		return 0, tierInfo{Retuned: true, SearchNanos: searchNanos}, fmt.Errorf("online: model prediction during retune: %w", predErr)
	}
	if err != nil {
		c.reportSearch(false)
		return 0, tierInfo{Retuned: true, SearchNanos: searchNanos}, err
	}
	c.reportSearch(true)
	oldTO := c.currentTO
	first := !c.haveDecision
	c.tunedRate = estimatedRate
	c.currentTO = res.Point[0]
	c.lastPredRT = res.RT
	c.haveDecision = true
	c.retunes++
	c.recordDecision(oldTO, c.currentTO, estimatedRate, first)
	return c.currentTO, tierInfo{PredictedRT: res.RT, Retuned: true, SearchNanos: searchNanos}, nil
}

// reportSearch feeds one search outcome to the breaker, if any.
func (c *Controller) reportSearch(ok bool) {
	if c.Breaker == nil {
		return
	}
	if ok {
		c.Breaker.Success()
	} else {
		c.Breaker.Failure()
	}
}

// Retunes reports how many model-driven searches the controller has run.
func (c *Controller) Retunes() int { return c.retunes }
