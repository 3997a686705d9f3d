package testbed

import (
	"math"

	"mdsprint/internal/dist"
	"mdsprint/internal/sim"
	"mdsprint/internal/sprint"
	"mdsprint/internal/workload"
)

// execution tracks one query through the queue manager and execution
// engine. Progress is maintained piecewise: tau is the work fraction
// completed at segStart, and the current segment runs either at the
// sustained rate or along the sprint curve.
type execution struct {
	rec   *QueryRecord
	class *workload.Class
	curve *workload.SprintCurve

	tau      float64 // progress at segment start
	segStart float64 // virtual time the current segment began
	running  bool
	sprint   bool
	toggle   float64 // dead time at the head of the sprint segment
	// stretch >= 1 slows the sprint segment's progress along the curve:
	// load-coupled degradation from the queue depth at engage time.
	stretch float64

	sprintStart float64
	pending     bool // timeout fired while queued: sprint at dispatch

	departEv  sim.Handle
	timeoutEv sim.Handle
}

// server wires Figure 3 together: query generator (arrival events), FIFO
// queue manager with timeout interrupts and budget accounting, and an
// execution engine with a fixed number of slots. Timeout and departure
// events carry the query id, which indexes both execs and records.
type server struct {
	cfg  Config
	eng  *sim.PooledEngine
	rng  *dist.RNG
	acct *sprint.Accountant

	cbArrive  sim.CallbackID
	cbTimeout sim.CallbackID
	cbDepart  sim.CallbackID
	cbBudget  sim.CallbackID

	interarrival dist.Dist
	serviceDists map[*workload.Class]dist.Dist
	curves       map[*workload.Class]*workload.SprintCurve
	toggleCost   float64

	queue     []*execution
	runningEx []*execution
	freeSlots int

	budgetEv sim.Handle

	execs    []execution
	records  []QueryRecord
	arrived  int
	departed int
	total    int
	lastDep  float64
}

func newServer(cfg Config) *server {
	interarrival := cfg.ArrivalOverride
	if interarrival == nil {
		interarrival = dist.ForRate(cfg.ArrivalKind, cfg.ArrivalRate)
	}
	s := &server{
		cfg:          cfg,
		eng:          sim.NewPooled(),
		rng:          dist.NewRNG(cfg.Seed),
		interarrival: interarrival,
		serviceDists: make(map[*workload.Class]dist.Dist),
		curves:       make(map[*workload.Class]*workload.SprintCurve),
		freeSlots:    cfg.Slots,
		total:        cfg.NumQueries + cfg.Warmup,
	}
	s.acct = sprint.ForPolicy(cfg.Policy)
	if !cfg.DisableRuntimeEffects {
		s.toggleCost = cfg.Mechanism.ToggleOverhead()
	}
	for _, comp := range cfg.Mix.Components {
		c := comp.Class
		// Service times at this mechanism's sustained operating
		// point, including mix interference.
		if cfg.ServiceOverride != nil {
			s.serviceDists[c] = cfg.ServiceOverride
		} else {
			meanSvc := 1 / sprint.QPH(cfg.Mechanism.SustainedQPH(c)) * cfg.Mix.Interference
			s.serviceDists[c] = dist.LogNormalFromMeanCV(meanSvc, c.ServiceCV)
		}
		s.curves[c] = s.buildCurve(c)
	}
	s.execs = make([]execution, s.total)
	s.records = make([]QueryRecord, s.total)
	s.cbArrive = s.eng.Register(func(int32) { s.arrive() })
	s.cbTimeout = s.eng.Register(func(id int32) { s.onTimeout(&s.execs[id]) })
	s.cbDepart = s.eng.Register(func(id int32) { s.depart(&s.execs[id]) })
	s.cbBudget = s.eng.Register(func(int32) { s.onBudgetEmpty() })
	return s
}

// buildCurve returns the sprint curve for class c: the mechanism's
// marginal speedup clipped to the policy's commanded speedup, shaped by
// the class's phase profile (or uniform when runtime effects are off).
func (s *server) buildCurve(c *workload.Class) *workload.SprintCurve {
	speedup := s.cfg.Mechanism.MarginalSpeedup(c)
	if s.cfg.Policy.Speedup > 0 && s.cfg.Policy.Speedup < speedup {
		speedup = s.cfg.Policy.Speedup
	}
	if speedup < 1 {
		speedup = 1
	}
	shape := c.Phases.Shape(s.cfg.Mechanism.ParallelismBased())
	if s.cfg.DisableRuntimeEffects {
		shape = func(float64) float64 { return 1 }
	}
	return workload.NewSprintCurve(shape, speedup)
}

func (s *server) run() {
	if s.total == 0 {
		return
	}
	s.eng.Schedule(s.interarrival.Sample(s.rng), s.cbArrive, 0)
	s.eng.RunAll()
}

func (s *server) result() *Result {
	measured := make([]QueryRecord, 0, s.cfg.NumQueries)
	sprinted := 0
	for i := range s.records {
		if s.records[i].Warm {
			continue
		}
		measured = append(measured, s.records[i])
		if s.records[i].Sprinted {
			sprinted++
		}
	}
	return &Result{Config: s.cfg, Queries: measured, SprintedCount: sprinted, Duration: s.lastDep}
}

// arrive admits the next query: timestamp it, enqueue, arm its timeout and
// schedule the following arrival.
func (s *server) arrive() {
	now := s.eng.Now()
	id := s.arrived
	s.arrived++
	class := s.cfg.Mix.Pick(s.rng)
	rec := &s.records[id]
	*rec = QueryRecord{
		ID:          id,
		Class:       class.Name,
		Arrival:     now,
		ServiceTime: s.serviceDists[class].Sample(s.rng),
		Warm:        id < s.cfg.Warmup,
	}
	e := &s.execs[id]
	*e = execution{rec: rec, class: class, curve: s.curves[class]}
	s.queue = append(s.queue, e)
	if p := s.cfg.Policy; !p.SprintingDisabled() {
		e.timeoutEv = s.eng.Schedule(now+p.Timeout, s.cbTimeout, int32(id))
	}
	if s.arrived < s.total {
		s.eng.After(s.interarrival.Sample(s.rng), s.cbArrive, 0)
	}
	s.dispatch()
}

// dispatch moves queries from the queue head into free execution slots.
func (s *server) dispatch() {
	now := s.eng.Now()
	for s.freeSlots > 0 && len(s.queue) > 0 {
		e := s.queue[0]
		s.queue = s.queue[1:]
		s.freeSlots--
		e.running = true
		e.rec.Start = now
		e.tau = 0
		e.segStart = now
		s.runningEx = append(s.runningEx, e)
		if e.pending && s.acct.CanSprint(now) {
			s.engageSprint(e)
		} else {
			e.departEv = s.eng.Schedule(now+e.rec.ServiceTime, s.cbDepart, int32(e.rec.ID))
		}
	}
}

// progressAt returns the work fraction e has completed by time now.
func (s *server) progressAt(e *execution, now float64) float64 {
	elapsed := now - e.segStart
	if !e.sprint {
		tau := e.tau + elapsed/e.rec.ServiceTime
		return math.Min(tau, 1)
	}
	elapsed -= e.toggle
	if elapsed < 0 {
		elapsed = 0
	}
	return e.curve.ProgressAfter(e.rec.ServiceTime, e.tau, elapsed/e.stretch)
}

// onTimeout handles the timer interrupt of Section 2.1: queued queries are
// marked to sprint at dispatch; executing queries sprint immediately,
// budget permitting.
func (s *server) onTimeout(e *execution) {
	e.rec.TimedOut = true
	now := s.eng.Now()
	if !e.running {
		e.pending = true
		return
	}
	if !e.sprint && s.acct.CanSprint(now) {
		// Roll progress forward to now, then switch segments.
		e.tau = s.progressAt(e, now)
		e.segStart = now
		s.engageSprint(e)
	}
}

// engageSprint switches e to sprinting from its current (tau, segStart)
// and replans its departure. Caller must have updated tau/segStart to now.
func (s *server) engageSprint(e *execution) {
	now := s.eng.Now()
	s.acct.StartSprint(now)
	e.sprint = true
	e.toggle = s.toggleCost
	e.stretch = s.sprintStretch(e)
	e.sprintStart = now
	e.rec.Sprinted = true
	e.rec.SprintTau = e.tau
	remaining := e.toggle + e.stretch*e.curve.SprintedRemaining(e.rec.ServiceTime, e.tau)
	s.eng.Cancel(e.departEv)
	e.departEv = s.eng.Schedule(now+remaining, s.cbDepart, int32(e.rec.ID))
	s.replanBudget()
}

// sprintStretch computes the load-coupled degradation of a sprint engaging
// now: with q queries queued, the speedup gain over sustained shrinks by
// 1/(1 + coeff*q), which stretches the sprinted remainder's wall-clock by
// S_avg / S_degraded (capped by maxLoadDegradation).
func (s *server) sprintStretch(e *execution) float64 {
	if s.cfg.LoadCoeff <= 0 {
		return 1
	}
	sAvg := e.curve.EffectiveSpeedupFrom(e.tau)
	if sAvg <= 1 {
		return 1
	}
	degrade := 1 + s.cfg.LoadCoeff*float64(len(s.queue))
	if degrade > maxLoadDegradation {
		degrade = maxLoadDegradation
	}
	sEff := 1 + (sAvg-1)/degrade
	return sAvg / sEff
}

// replanBudget (re)schedules the budget-exhaustion interrupt at the
// accountant's current time-to-empty horizon.
func (s *server) replanBudget() {
	now := s.eng.Now()
	s.eng.Cancel(s.budgetEv)
	tte := s.acct.TimeToEmpty(now)
	if math.IsInf(tte, 1) {
		return
	}
	s.budgetEv = s.eng.Schedule(now+tte, s.cbBudget, 0)
}

// onBudgetEmpty force-stops every active sprint: remaining work continues
// at the sustained rate (Figure 1's "sprinting budget is exhausted").
func (s *server) onBudgetEmpty() {
	now := s.eng.Now()
	for _, e := range s.runningEx {
		if !e.sprint {
			continue
		}
		e.tau = s.progressAt(e, now)
		s.stopSprint(e, now)
		e.segStart = now
		remaining := (1 - e.tau) * e.rec.ServiceTime
		e.departEv = s.eng.Reschedule(e.departEv, now+remaining)
	}
	s.replanBudget()
}

// stopSprint ends e's sprint accounting at time now.
func (s *server) stopSprint(e *execution, now float64) {
	s.acct.StopSprint(now)
	e.rec.SprintSeconds += now - e.sprintStart
	e.sprint = false
	e.toggle = 0
	e.stretch = 1
}

// depart completes e: close out sprint accounting, free the slot, and
// dispatch the next queued query.
func (s *server) depart(e *execution) {
	now := s.eng.Now()
	e.rec.Depart = now
	s.lastDep = now
	if e.sprint {
		s.stopSprint(e, now)
		s.replanBudget()
	}
	s.eng.Cancel(e.timeoutEv)
	for i, re := range s.runningEx {
		if re == e {
			s.runningEx = append(s.runningEx[:i], s.runningEx[i+1:]...)
			break
		}
	}
	e.running = false
	s.departed++
	s.freeSlots++
	s.dispatch()
}
