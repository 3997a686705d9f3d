package calib

import (
	"context"
	"errors"
	"math"
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/fault"
	"mdsprint/internal/obs"
	"mdsprint/internal/profiler"
)

// TestEffectiveRateDegradesWhenBreakerOpen: with the breaker open, a
// calibration must not spend simulator time; the record falls back to
// the prediction-free marginal rate.
func TestEffectiveRateDegradesWhenBreakerOpen(t *testing.T) {
	conds := []profiler.Condition{
		{Utilization: 0.6, ArrivalKind: dist.KindExponential, Timeout: 60, RefillTime: 300, BudgetPct: 0.3},
	}
	ds := jacobiDataset(t, conds)
	reg := obs.NewRegistry()
	br := fault.NewBreaker(fault.BreakerConfig{FailureThreshold: 1, Metrics: reg})
	br.Failure() // trip it open
	if br.State() != fault.Open {
		t.Fatal("setup: breaker must be open")
	}
	o := fastOpts
	o.Breaker = br
	o.Metrics = reg
	rec := EffectiveRate(ds, ds.Observations[0], o)
	if !math.IsNaN(rec.SimRT) {
		t.Fatalf("degraded record ran the simulator: SimRT = %v", rec.SimRT)
	}
	if rec.EffectiveRate < rec.MarginalRate || rec.EffectiveRate > rec.MarginalRate {
		t.Fatalf("degraded mu_e = %v, want the marginal rate %v", rec.EffectiveRate, rec.MarginalRate)
	}
	if got := reg.Counter("mdsprint_calib_degraded_total", "").Value(); got < 1 {
		t.Fatalf("degraded counter %v, want >= 1", got)
	}
}

// TestEffectiveRateReportsToBreaker: a healthy calibration feeds Success
// into the breaker so real recoveries close it again.
func TestEffectiveRateReportsToBreaker(t *testing.T) {
	conds := []profiler.Condition{
		{Utilization: 0.5, ArrivalKind: dist.KindExponential, Timeout: 60, RefillTime: 300, BudgetPct: 0.3},
	}
	ds := jacobiDataset(t, conds)
	reg := obs.NewRegistry()
	br := fault.NewBreaker(fault.BreakerConfig{
		FailureThreshold: 1, CooldownCalls: 1, HalfOpenSuccesses: 1, Metrics: reg,
	})
	br.Failure()    // open
	if br.Allow() { // consumes the cooldown; breaker half-opens
		t.Fatal("setup: open breaker must deny")
	}
	if br.State() != fault.HalfOpen {
		t.Fatal("setup: breaker must be half-open")
	}
	o := fastOpts
	o.Breaker = br
	o.Metrics = reg
	rec := EffectiveRate(ds, ds.Observations[0], o)
	if rec.RelError() > o.DivergentRelError && o.DivergentRelError > 0 {
		t.Skipf("calibration did not converge (rel error %v); cannot assert Success reporting", rec.RelError())
	}
	if br.State() != fault.Closed {
		t.Fatalf("breaker %s after a healthy calibration probe, want closed", br.State())
	}
}

func TestCalibrateDatasetCtxCancellation(t *testing.T) {
	conds := profiler.SmallGrid().Sample(3, 2)
	ds := jacobiDataset(t, conds)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := fastOpts
	o.Metrics = obs.NewRegistry()
	recs, err := CalibrateDatasetCtx(ctx, ds, ds.Observations, o)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if recs != nil {
		t.Fatalf("canceled calibration returned records: %v", recs)
	}
	// A live, never-canceled context calibrates exactly as Background.
	live, stop := context.WithCancel(context.Background())
	defer stop()
	a, err := CalibrateDatasetCtx(live, ds, ds.Observations, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CalibrateDatasetCtx(context.Background(), ds, ds.Observations, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].EffectiveRate < b[i].EffectiveRate || a[i].EffectiveRate > b[i].EffectiveRate {
			t.Fatalf("record %d differs between ctx and legacy paths", i)
		}
	}
}

func TestSimulateRTErrValidation(t *testing.T) {
	conds := []profiler.Condition{
		{Utilization: 0.5, ArrivalKind: dist.KindExponential, Timeout: 60, RefillTime: 300, BudgetPct: 0.3},
	}
	ds := jacobiDataset(t, conds)
	o := fastOpts
	o.Metrics = obs.NewRegistry()
	// A non-positive rate cannot be simulated: the error path must
	// surface instead of panicking.
	if _, err := SimulateRTErr(ds, ds.Observations[0], -1, o); err == nil {
		t.Fatal("expected an error for a negative rate")
	}
	rt, err := SimulateRTErr(ds, ds.Observations[0], ds.ServiceRate*0.9, o)
	if err != nil || rt <= 0 {
		t.Fatalf("healthy simulate: rt=%v err=%v", rt, err)
	}
}
