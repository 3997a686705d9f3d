package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"mdsprint/internal/fault"
	"mdsprint/internal/obs"
	"mdsprint/internal/online"
	"mdsprint/internal/profiler"
	"mdsprint/internal/sweep"
	"mdsprint/internal/tier"
)

// Shedding verdicts. Each maps to one HTTP answer: a full queue is the
// tenant's own backpressure (429, retry soon), everything else is the
// server protecting itself (503).
var (
	// ErrQueueFull means QueueDepth callers already wait for the tenant.
	ErrQueueFull = errors.New("server: tenant queue full")
	// ErrStalled means the tenant's current turn has been stuck inside
	// one operation longer than the stall budget — likely a wedged model.
	ErrStalled = errors.New("server: tenant stalled")
	// ErrDraining means the tenant is shutting down or being reloaded.
	ErrDraining = errors.New("server: tenant draining")
	// ErrStopped means the server's lifetime ended while the request
	// waited for its turn.
	ErrStopped = errors.New("server: tenant stopped")
	// ErrDeadline means the request's deadline expired before its turn.
	ErrDeadline = errors.New("server: deadline expired in queue")
)

// TenantConfig declares one tenant: its synthetic workload surface,
// its controller tuning, and its robustness budgets. The zero values
// of the tuning fields take the documented defaults.
type TenantConfig struct {
	// Name routes requests; required and unique per server.
	Name string `json:"name"`
	// ServiceRate, SprintGain and SweetTimeout shape the tenant's
	// ground-truth surface (defaults 1, 0.8, 20) — each tenant is its
	// own independently calibrated workload.
	ServiceRate  float64 `json:"service_rate"`
	SprintGain   float64 `json:"sprint_gain"`
	SweetTimeout float64 `json:"sweet_timeout"`
	// MaxTimeout, AnnealIter, Seed and RetuneThreshold tune the tenant's
	// controllers (defaults 60, 30, per-name hash, 0.15).
	MaxTimeout      float64 `json:"max_timeout"`
	AnnealIter      int     `json:"anneal_iter"`
	Seed            uint64  `json:"seed"`
	RetuneThreshold float64 `json:"retune_threshold"`
	// QueueDepth bounds how many callers may wait behind the running
	// one (default 64): the bulkhead between a slow tenant and the
	// process's memory.
	QueueDepth int `json:"queue_depth"`
	// LedgerCap bounds the in-memory decision ledger ring (default 4096).
	LedgerCap int `json:"ledger_cap"`
	// TierSpec, when non-empty, routes the tenant's model queries
	// through a staged tier estimator built over a per-tenant sweep
	// engine (see tier.ParseTierSpec; e.g. "bound=0.1"). Each decision
	// then records which ladder tier dominated its queries, and the
	// tenant's registry carries the mdsprint_tier_* metrics. Empty
	// disables tiering (today's behavior).
	TierSpec string `json:"tier_spec,omitempty"`
	// StallAfter is how long one operation may run before the tenant is
	// declared stalled and sheds instead of queueing (default 2s).
	StallAfter time.Duration `json:"stall_after"`
	// Watchdog tunes the degradation watchdogs (zero values take the
	// watchdog defaults).
	Watchdog online.WatchdogConfig `json:"-"`
}

func (c TenantConfig) withDefaults() TenantConfig {
	if c.ServiceRate <= 0 {
		c.ServiceRate = 1
	}
	if c.SprintGain <= 0 {
		c.SprintGain = 0.8
	}
	if c.SweetTimeout <= 0 {
		c.SweetTimeout = 20
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60
	}
	if c.AnnealIter <= 0 {
		c.AnnealIter = 30
	}
	if c.Seed == 0 {
		// Distinct deterministic seeds per tenant name.
		h := uint64(14695981039346656037)
		for i := 0; i < len(c.Name); i++ {
			h ^= uint64(c.Name[i])
			h *= 1099511628211
		}
		c.Seed = h | 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.LedgerCap <= 0 {
		c.LedgerCap = 4096
	}
	if c.StallAfter <= 0 {
		c.StallAfter = 2 * time.Second
	}
	return c
}

// tenantMetrics are the serving-plane counters, scoped to the tenant's
// own registry next to its controller metrics.
type tenantMetrics struct {
	decideOK  *obs.Counter
	decideErr *obs.Counter
	observes  *obs.Counter
	panics    *obs.Counter
	shedFull  *obs.Counter
	shedLate  *obs.Counter
}

// tenant is one isolated serving unit: its own model chain, fallback
// controller, breaker, ledger and metrics registry. The controller is
// not safe for concurrent use, so callers take turns on it: turn holds
// a single token, and only the caller holding it touches the
// controller, in the caller's own goroutine. The admitted count bounds
// how many may wait for the token, which makes it both the
// admission-control point and the bulkhead: a misbehaving tenant
// sheds its own load, and nothing else.
type tenant struct {
	cfg      TenantConfig
	reg      *obs.Registry
	fc       *online.FallbackController
	breaker  *fault.Breaker
	ledger   *online.DecisionLedger
	primary  *SurfaceModel
	fallback *SurfaceModel
	tiers    *tier.Estimator // nil unless TierSpec is configured

	life     context.Context // the server's lifetime
	turn     chan struct{}   // capacity 1; holding its token owns the controller
	admitted atomic.Int64    // callers holding or waiting for the turn
	stopped  chan struct{}   // closed once stop keeps the token for good
	draining atomic.Bool
	busyAt   atomic.Int64           // start of the turn in progress (unix nanos); 0 idle
	next     atomic.Pointer[tenant] // the replacement a reload swapped in

	m tenantMetrics
}

// newTenant builds a tenant whose turn token is not yet issued: callers
// are admitted and wait, which is what lets a hot reload swap a tenant
// in, restore state into it, and only then start serving — without
// dropping or racing the requests that arrived in between. ctx is the
// server's lifetime: when it ends, waiting callers give up.
func newTenant(ctx context.Context, cfg TenantConfig) (*tenant, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("server: tenant needs a name")
	}
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	primary := NewSurfaceModel(cfg.Name+"-primary", cfg.ServiceRate, cfg.SprintGain, cfg.SweetTimeout)
	fallback := NewSurfaceModel(cfg.Name+"-fallback", cfg.ServiceRate, cfg.SprintGain, cfg.SweetTimeout)
	breaker := fault.NewBreaker(fault.BreakerConfig{
		Name: cfg.Name, FailureThreshold: 1, Metrics: reg,
	})
	var est *tier.Estimator
	var eng *sweep.Engine
	if cfg.TierSpec != "" {
		spec, err := tier.ParseTierSpec(cfg.TierSpec)
		if err != nil {
			return nil, fmt.Errorf("server: tenant %s: %w", cfg.Name, err)
		}
		eng = sweep.New(sweep.Options{Workers: 2, Metrics: reg})
		est, err = tier.New(spec, tier.Options{Engine: eng, Metrics: reg})
		if err != nil {
			return nil, fmt.Errorf("server: tenant %s: %w", cfg.Name, err)
		}
		primary.SetTiers(est)
		fallback.SetTiers(est)
	}
	ledger := online.NewBoundedDecisionLedger(cfg.LedgerCap)
	fc, err := online.NewFallbackController(online.FallbackConfig{
		Primary:         primary,
		Fallback:        fallback,
		Dataset:         &profiler.Dataset{ServiceRate: cfg.ServiceRate, MarginalRate: cfg.ServiceRate * (1 + cfg.SprintGain)},
		MaxTimeout:      cfg.MaxTimeout,
		AnnealIter:      cfg.AnnealIter,
		Seed:            cfg.Seed,
		RetuneThreshold: cfg.RetuneThreshold,
		Watchdog:        cfg.Watchdog,
		Breaker:         breaker,
		Metrics:         reg,
		Ledger:          ledger,
		Engine:          eng,
		Tiers:           est,
	})
	if err != nil {
		return nil, fmt.Errorf("server: tenant %s: %w", cfg.Name, err)
	}
	t := &tenant{
		cfg: cfg, reg: reg, fc: fc, breaker: breaker, ledger: ledger,
		primary: primary, fallback: fallback, tiers: est,
		life: ctx, turn: make(chan struct{}, 1), stopped: make(chan struct{}),
		m: tenantMetrics{
			decideOK:  reg.Counter("mdsprint_serve_decisions_total", "decisions served"),
			decideErr: reg.Counter("mdsprint_serve_decision_errors_total", "decisions that failed"),
			observes:  reg.Counter("mdsprint_serve_observations_total", "observations fed to the watchdogs"),
			panics:    reg.Counter("mdsprint_serve_panics_total", "decision-path panics recovered by the bulkhead"),
			shedFull:  reg.Counter("mdsprint_serve_shed_queue_full_total", "requests shed because the tenant queue was full"),
			shedLate:  reg.Counter("mdsprint_serve_shed_deadline_total", "waiting requests whose deadline expired before their turn"),
		},
	}
	return t, nil
}

// start issues the turn token: the tenant begins serving.
func (t *tenant) start() { t.turn <- struct{}{} }

// stop drains the tenant, bounded by ctx: new callers are refused with
// ErrDraining, every admitted caller still gets its turn, and then stop
// keeps the token for good and closes stopped, after which Snapshot
// reads the state directly.
func (t *tenant) stop(ctx context.Context) error {
	t.draining.Store(true)
	for {
		select {
		case <-t.turn:
		case <-t.stopped:
			return nil
		case <-ctx.Done():
			return fmt.Errorf("server: tenant %s: drain: %w", t.cfg.Name, ctx.Err())
		}
		if t.admitted.Load() == 0 {
			close(t.stopped)
			return nil
		}
		// Someone admitted is still waiting: hand the token on and queue
		// up behind them.
		t.turn <- struct{}{}
		runtime.Gosched()
	}
}

// stalled reports whether the turn holder has been inside one operation
// longer than the stall budget.
func (t *tenant) stalled() bool {
	at := t.busyAt.Load()
	return at != 0 && time.Since(time.Unix(0, at)) > t.cfg.StallAfter
}

// enter admits a caller and waits for its turn, shedding instead of
// queueing without bound: the wait is a bulkhead, not a buffer of
// unbounded patience. The admitted count goes up before the draining
// check, so a stop that finds it at zero has refused everyone after.
func (t *tenant) enter(ctx context.Context) error {
	n := t.admitted.Add(1)
	var err error
	switch {
	case t.draining.Load():
		err = ErrDraining
	case t.stalled():
		err = ErrStalled
	case n > int64(t.cfg.QueueDepth)+1: // QueueDepth waiting behind the one running
		t.m.shedFull.Inc()
		err = ErrQueueFull
	default:
		return t.wait(ctx)
	}
	t.admitted.Add(-1)
	return err
}

// wait takes the turn for an admitted caller, bounded by the caller's
// ctx and the server's lifetime. An uncontended turn is one channel
// receive.
func (t *tenant) wait(ctx context.Context) error {
	select {
	case <-t.turn:
	default:
		select {
		case <-t.turn:
		case <-ctx.Done():
			t.admitted.Add(-1)
			t.m.shedLate.Inc()
			return ErrDeadline
		case <-t.life.Done():
			t.admitted.Add(-1)
			return ErrStopped
		case <-t.stopped:
			t.admitted.Add(-1)
			return ErrDraining
		}
	}
	if ctx.Err() != nil {
		t.leave()
		t.m.shedLate.Inc()
		return ErrDeadline
	}
	t.busyAt.Store(time.Now().UnixNano())
	return nil
}

// leave gives the turn back.
func (t *tenant) leave() {
	t.busyAt.Store(0)
	t.admitted.Add(-1)
	t.turn <- struct{}{}
}

// guard ends a turn, deferred by every operation. It is the bulkhead's
// panic recovery: a panicking model costs the tenant a demotion
// (crashing is worse evidence than erring) and fails only this
// operation — never the tenant, never the process.
func (t *tenant) guard(err *error) {
	if r := recover(); r != nil {
		t.m.panics.Inc()
		t.fc.Demote()
		*err = fmt.Errorf("server: tenant %s: recovered decision-path panic: %v", t.cfg.Name, r)
	}
	t.leave()
}

// Decide runs one decision on the tenant's controller and returns the
// selected timeout and the tier that answered. Steady-state (a cached
// decision, no faults) this path performs zero allocations. A tenant
// that a reload replaced passes the callers it refuses to its
// replacement.
func (t *tenant) Decide(ctx context.Context, rate float64) (timeout float64, level online.Level, err error) {
	if err := t.enter(ctx); err != nil {
		if next := t.next.Load(); next != nil && err == ErrDraining {
			return next.Decide(ctx, rate)
		}
		return 0, 0, err
	}
	defer t.guard(&err)
	timeout, err = t.fc.TimeoutCtx(ctx, rate)
	if err != nil {
		t.m.decideErr.Inc()
		return 0, 0, err
	}
	t.m.decideOK.Inc()
	return timeout, t.fc.Level(), nil
}

// ObserveRT feeds one observed response time into the tenant's health
// watchdogs, taking its turn like a decision.
func (t *tenant) ObserveRT(ctx context.Context, rate, observed float64) (err error) {
	if err := t.enter(ctx); err != nil {
		if next := t.next.Load(); next != nil && err == ErrDraining {
			return next.ObserveRT(ctx, rate, observed)
		}
		return err
	}
	defer t.guard(&err)
	t.fc.Observe(rate, observed)
	t.m.observes.Inc()
	return nil
}

// Snapshot captures the tenant's full crash-safety state on a turn of
// its own, so the capture is consistent with the decision stream. A
// draining tenant still grants it a turn; a stopped one is read
// directly, since stop holds the token and nothing races.
func (t *tenant) Snapshot(ctx context.Context) (snap TenantSnapshot, err error) {
	select {
	case <-t.stopped:
		return t.state(), nil
	default:
	}
	if t.stalled() {
		return TenantSnapshot{}, ErrStalled
	}
	t.admitted.Add(1)
	if err := t.wait(ctx); err != nil {
		return TenantSnapshot{}, err
	}
	defer t.guard(&err)
	return t.state(), nil
}

// state reads the crash-safety state; the caller owns the controller.
func (t *tenant) state() TenantSnapshot {
	demotions, promotions := t.fc.Counts()
	return TenantSnapshot{
		Config:     t.cfg,
		Fallback:   t.fc.State(),
		Breaker:    t.breaker.Snapshot(),
		Ledger:     t.ledger.State(),
		Demotions:  demotions,
		Promotions: promotions,
	}
}

// restore loads a snapshot into a tenant that has not started.
func (t *tenant) restore(snap TenantSnapshot) error {
	if err := t.fc.Restore(snap.Fallback); err != nil {
		return fmt.Errorf("server: tenant %s: %w", t.cfg.Name, err)
	}
	if err := t.breaker.Restore(snap.Breaker); err != nil {
		return fmt.Errorf("server: tenant %s: %w", t.cfg.Name, err)
	}
	if err := t.ledger.Restore(snap.Ledger); err != nil {
		return fmt.Errorf("server: tenant %s: %w", t.cfg.Name, err)
	}
	return nil
}

// Level reads the tenant's degradation level from its metrics registry
// (the turn holder owns the controller; the gauge is the lock-free view).
func (t *tenant) Level() online.Level {
	lvl, _ := t.reg.Value("mdsprint_online_level")
	return online.Level(int(lvl))
}

// model returns the named fault-injection target.
func (t *tenant) model(which string) (*SurfaceModel, error) {
	switch which {
	case "", "primary":
		return t.primary, nil
	case "fallback":
		return t.fallback, nil
	default:
		return nil, fmt.Errorf("server: tenant %s has no model %q (primary, fallback)", t.cfg.Name, which)
	}
}
