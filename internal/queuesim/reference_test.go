package queuesim

import (
	"math"

	"mdsprint/internal/dist"
	"mdsprint/internal/obs"
	"mdsprint/internal/sprint"
)

// This file preserves the original heap-and-closure simulator verbatim
// on the closure engine of refengine_test.go (one *refQuery and 2-3
// *refEvent allocations plus per-event closures per simulated query, and
// a head-shifting slice FIFO). It is test-only: it exists so the
// differential test suite can prove the pooled engine in queuesim.go
// produces bit-identical results — RT and queueing-time vectors, tracer
// event sequences, sprint accounting — across seeds, policies and refill
// modes. Any semantic change to the
// simulator must land in both implementations or the differential suite
// fails, which is the point.
//
// Differences from the production path, deliberate and test-invisible:
// the reference does not flush obs metrics or read the run clock (metrics
// are not part of the equivalence contract, and skipping them keeps
// differential tests from double-counting process-wide counters).

// refQuery is Algorithm 1's query object, heap-allocated per arrival.
type refQuery struct {
	id          int
	arrival     float64
	service     float64
	start       float64
	tau         float64 // progress at segment start
	seg         float64 // segment start time
	sprint      bool
	sprintStart float64
	pending     bool
	warm        bool

	departEv  *refEvent
	timeoutEv *refEvent
	running   bool
	sprinted  bool
}

// refState is the running reference simulation.
type refState struct {
	p       Params
	eng     *refEngine
	rng     *dist.RNG
	arr     dist.Dist
	acct    *sprint.Accountant
	speedup float64
	tr      obs.QueryTracer // nil when tracing is off

	queue    []*refQuery
	running  []*refQuery
	free     int
	budgetEv *refEvent

	arrived     int
	engages     int
	exhaustions int
	exhausted   bool
	res         Result
}

// runReference simulates the configured queue with the original engine.
func runReference(p Params) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	arr := p.Arrival
	if arr == nil {
		arr = dist.ForRate(p.ArrivalKind, p.ArrivalRate)
	}
	var acctOpts []sprint.AccountantOption
	switch p.Refill {
	case sprint.RefillPaused:
		acctOpts = append(acctOpts, sprint.WithPausedRefill())
	case sprint.RefillWindow:
		if p.RefillTime > 0 {
			acctOpts = append(acctOpts, sprint.WithWindowRefill(p.RefillTime))
		}
	}
	s := &refState{
		p:       p,
		eng:     newRefEngine(),
		rng:     dist.NewRNG(p.Seed),
		arr:     arr,
		acct:    sprint.NewAccountant(p.BudgetSeconds, refillRate(p), acctOpts...),
		speedup: p.speedup(),
		tr:      p.Tracer,
		free:    p.Slots,
	}
	total := p.NumQueries + p.Warmup
	if total == 0 {
		return &s.res, nil
	}
	s.res.RTs = make([]float64, 0, p.NumQueries)
	s.res.QueueingTimes = make([]float64, 0, p.NumQueries)
	s.eng.Schedule(s.arr.Sample(s.rng), s.arrive)
	s.eng.RunAll()
	s.res.Engages = s.engages
	s.res.Exhaustions = s.exhaustions
	return &s.res, nil
}

// noteLive records the live-query high-water mark the pooled engine
// tracks through its slab, computed here from the logical queue + running
// sets so the two implementations report the identical MaxLive.
func (s *refState) noteLive() {
	if live := len(s.queue) + len(s.running); live > s.res.MaxLive {
		s.res.MaxLive = live
	}
}

func (s *refState) arrive() {
	now := s.eng.Now()
	id := s.arrived
	s.arrived++
	q := &refQuery{
		id:      id,
		arrival: now,
		service: s.p.Service.Sample(s.rng),
		warm:    id < s.p.Warmup,
	}
	if s.tr != nil {
		s.tr.Event(obs.QueryEvent{Type: obs.EvArrival, Time: now, Query: q.id, Value: q.service})
	}
	s.queue = append(s.queue, q)
	s.noteLive()
	if s.p.sprintingEnabled() {
		q.timeoutEv = s.eng.Schedule(now+s.p.Timeout, func() { s.onTimeout(q) })
	}
	if s.arrived < s.p.NumQueries+s.p.Warmup {
		s.eng.After(s.arr.Sample(s.rng), s.arrive)
	}
	s.dispatch()
}

func (s *refState) dispatch() {
	now := s.eng.Now()
	for s.free > 0 && len(s.queue) > 0 {
		q := s.queue[0]
		s.queue = s.queue[1:]
		s.free--
		q.running = true
		q.start = now
		q.seg = now
		q.tau = 0
		s.running = append(s.running, q)
		if s.tr != nil {
			s.tr.Event(obs.QueryEvent{Type: obs.EvServiceStart, Time: now, Query: q.id, Value: now - q.arrival})
		}
		if q.pending && s.acct.CanSprint(now) {
			s.engage(q)
		} else {
			q.departEv = s.eng.Schedule(now+q.service, func() { s.depart(q) })
		}
	}
}

// progress rolls q's completed-work fraction forward to now.
func (s *refState) progress(q *refQuery, now float64) float64 {
	rate := 1.0
	if q.sprint {
		rate = s.speedup
	}
	tau := q.tau + (now-q.seg)*rate/q.service
	return math.Min(tau, 1)
}

func (s *refState) onTimeout(q *refQuery) {
	now := s.eng.Now()
	if s.tr != nil {
		s.tr.Event(obs.QueryEvent{Type: obs.EvTimeout, Time: now, Query: q.id, Value: s.p.Timeout})
	}
	if !q.running {
		q.pending = true
		return
	}
	if !q.sprint && s.acct.CanSprint(now) {
		q.tau = s.progress(q, now)
		q.seg = now
		s.engage(q)
	}
}

// engage applies Equation 1: the remaining execution shrinks by mu/mu_e.
func (s *refState) engage(q *refQuery) {
	now := s.eng.Now()
	s.engages++
	if s.tr != nil {
		level := s.acct.Level(now)
		if s.exhausted {
			s.tr.Event(obs.QueryEvent{Type: obs.EvRefill, Time: now, Query: q.id, Value: level})
		}
		s.tr.Event(obs.QueryEvent{Type: obs.EvSprintStart, Time: now, Query: q.id, Value: level})
	}
	s.exhausted = false
	s.acct.StartSprint(now)
	q.sprint = true
	q.sprinted = true
	q.sprintStart = now
	remaining := (1 - q.tau) * q.service / s.speedup
	if q.departEv != nil {
		s.eng.Cancel(q.departEv)
	}
	q.departEv = s.eng.Schedule(now+remaining, func() { s.depart(q) })
	s.replanBudget()
}

func (s *refState) replanBudget() {
	now := s.eng.Now()
	if s.budgetEv != nil {
		s.eng.Cancel(s.budgetEv)
		s.budgetEv = nil
	}
	tte := s.acct.TimeToEmpty(now)
	if math.IsInf(tte, 1) {
		return
	}
	s.budgetEv = s.eng.Schedule(now+tte, s.onBudgetEmpty)
}

func (s *refState) onBudgetEmpty() {
	now := s.eng.Now()
	s.budgetEv = nil
	s.exhaustions++
	s.exhausted = true
	if s.tr != nil {
		active := 0
		for _, q := range s.running {
			if q.sprint {
				active++
			}
		}
		s.tr.Event(obs.QueryEvent{Type: obs.EvBudgetExhausted, Time: now, Query: -1, Value: float64(active)})
	}
	for _, q := range s.running {
		if !q.sprint {
			continue
		}
		q.tau = s.progress(q, now)
		q.seg = now
		s.acct.StopSprint(now)
		q.sprint = false
		s.res.SprintSeconds += now - q.sprintStart
		if s.tr != nil {
			s.tr.Event(obs.QueryEvent{Type: obs.EvSprintStop, Time: now, Query: q.id, Value: now - q.sprintStart})
		}
		remaining := (1 - q.tau) * q.service
		q.departEv = s.eng.Reschedule(q.departEv, now+remaining)
	}
	s.replanBudget()
}

func (s *refState) depart(q *refQuery) {
	now := s.eng.Now()
	s.res.Duration = now
	if q.sprint {
		s.acct.StopSprint(now)
		q.sprint = false
		s.res.SprintSeconds += now - q.sprintStart
		if s.tr != nil {
			s.tr.Event(obs.QueryEvent{Type: obs.EvSprintStop, Time: now, Query: q.id, Value: now - q.sprintStart})
		}
		s.replanBudget()
	}
	if s.tr != nil {
		s.tr.Event(obs.QueryEvent{Type: obs.EvDeparture, Time: now, Query: q.id, Value: now - q.arrival})
	}
	if q.timeoutEv != nil {
		s.eng.Cancel(q.timeoutEv)
		q.timeoutEv = nil
	}
	for i, rq := range s.running {
		if rq == q {
			s.running = append(s.running[:i], s.running[i+1:]...)
			break
		}
	}
	q.running = false
	if !q.warm {
		s.res.RTs = append(s.res.RTs, now-q.arrival)
		s.res.QueueingTimes = append(s.res.QueueingTimes, q.start-q.arrival)
		if q.sprinted {
			s.res.SprintedCount++
		}
	}
	s.free++
	s.dispatch()
}

// refMCQuery extends refQuery with its class index.
type refMCQuery struct {
	refQuery
	class int
}

// refMCState is the running multi-class reference simulation.
type refMCState struct {
	p        MultiParams
	eng      *refEngine
	rng      *dist.RNG
	arr      dist.Dist
	acct     *sprint.Accountant
	speedups []float64
	tr       obs.QueryTracer

	queue    []*refMCQuery
	running  []*refMCQuery
	free     int
	budgetEv *refEvent

	arrived     int
	engages     int
	exhaustions int
	exhausted   bool
	res         MultiResult
}

// runMultiReference simulates the multi-class system with the original
// engine.
func runMultiReference(p MultiParams) (*MultiResult, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if p.Slots == 0 {
		p.Slots = 1
	}
	if p.NumQueries == 0 {
		p.NumQueries = 1000
	}
	if p.ArrivalKind == "" {
		p.ArrivalKind = dist.KindExponential
	}
	arr := p.Arrival
	if arr == nil {
		arr = dist.ForRate(p.ArrivalKind, p.ArrivalRate)
	}
	refill := 0.0
	if p.RefillTime > 0 {
		refill = p.BudgetSeconds / p.RefillTime
	}

	s := &refMCState{
		p:    p,
		eng:  newRefEngine(),
		rng:  dist.NewRNG(p.Seed),
		arr:  arr,
		acct: sprint.NewAccountant(p.BudgetSeconds, refill),
		tr:   p.Tracer,
		free: p.Slots,
		res:  MultiResult{ByClass: map[string][]float64{}},
	}
	s.speedups = make([]float64, len(p.Classes))
	for i, c := range p.Classes {
		sp := 1.0
		if c.SprintRate > 0 {
			sp = c.SprintRate / c.ServiceRate
			if sp < 0.1 {
				sp = 0.1
			}
		}
		s.speedups[i] = sp
	}
	total := p.NumQueries + p.Warmup
	if total > 0 {
		s.eng.Schedule(arr.Sample(s.rng), s.arrive)
	}
	s.eng.RunAll()
	s.res.Engages = s.engages
	s.res.Exhaustions = s.exhaustions
	return &s.res, nil
}

func (s *refMCState) noteLive() {
	if live := len(s.queue) + len(s.running); live > s.res.MaxLive {
		s.res.MaxLive = live
	}
}

// emit traces one event tagged with q's class; callers guard on s.tr.
func (s *refMCState) emit(typ obs.EventType, now float64, q *refMCQuery, value float64) {
	s.tr.Event(obs.QueryEvent{
		Type: typ, Time: now, Query: q.id,
		Class: s.p.Classes[q.class].Name, Value: value,
	})
}

// pickClass draws a class index by weight.
func (s *refMCState) pickClass() int {
	u := s.rng.Float64()
	acc := 0.0
	for i, c := range s.p.Classes {
		acc += c.Weight
		if u < acc {
			return i
		}
	}
	return len(s.p.Classes) - 1
}

// classSprints reports whether class ci's sprint clause is active.
func (s *refMCState) classSprints(ci int) bool {
	//lint:ignore floateq per-class speedups are exactly 1 only via the no-sprint sentinel; ratios near 1 must keep sprinting
	return s.p.Classes[ci].Timeout >= 0 && s.p.BudgetSeconds > 0 && s.speedups[ci] != 1
}

func (s *refMCState) arrive() {
	now := s.eng.Now()
	id := s.arrived
	s.arrived++
	ci := s.pickClass()
	q := &refMCQuery{class: ci}
	q.id = id
	q.arrival = now
	q.service = s.p.Classes[ci].Service.Sample(s.rng)
	q.warm = id < s.p.Warmup
	if s.tr != nil {
		s.emit(obs.EvArrival, now, q, q.service)
	}
	s.queue = append(s.queue, q)
	s.noteLive()
	if s.classSprints(ci) {
		q.timeoutEv = s.eng.Schedule(now+s.p.Classes[ci].Timeout, func() { s.onTimeout(q) })
	}
	if s.arrived < s.p.NumQueries+s.p.Warmup {
		s.eng.After(s.arr.Sample(s.rng), s.arrive)
	}
	s.dispatch()
}

func (s *refMCState) dispatch() {
	now := s.eng.Now()
	for s.free > 0 && len(s.queue) > 0 {
		q := s.queue[0]
		s.queue = s.queue[1:]
		s.free--
		q.running = true
		q.start = now
		q.seg = now
		q.tau = 0
		s.running = append(s.running, q)
		if s.tr != nil {
			s.emit(obs.EvServiceStart, now, q, now-q.arrival)
		}
		if q.pending && s.acct.CanSprint(now) {
			s.engage(q)
		} else {
			q.departEv = s.eng.Schedule(now+q.service, func() { s.depart(q) })
		}
	}
}

func (s *refMCState) progress(q *refMCQuery, now float64) float64 {
	rate := 1.0
	if q.sprint {
		rate = s.speedups[q.class]
	}
	tau := q.tau + (now-q.seg)*rate/q.service
	return math.Min(tau, 1)
}

func (s *refMCState) onTimeout(q *refMCQuery) {
	now := s.eng.Now()
	if s.tr != nil {
		s.emit(obs.EvTimeout, now, q, s.p.Classes[q.class].Timeout)
	}
	if !q.running {
		q.pending = true
		return
	}
	if !q.sprint && s.acct.CanSprint(now) {
		q.tau = s.progress(q, now)
		q.seg = now
		s.engage(q)
	}
}

func (s *refMCState) engage(q *refMCQuery) {
	now := s.eng.Now()
	s.engages++
	if s.tr != nil {
		level := s.acct.Level(now)
		if s.exhausted {
			s.emit(obs.EvRefill, now, q, level)
		}
		s.emit(obs.EvSprintStart, now, q, level)
	}
	s.exhausted = false
	s.acct.StartSprint(now)
	q.sprint = true
	q.sprinted = true
	q.sprintStart = now
	remaining := (1 - q.tau) * q.service / s.speedups[q.class]
	if q.departEv != nil {
		s.eng.Cancel(q.departEv)
	}
	q.departEv = s.eng.Schedule(now+remaining, func() { s.depart(q) })
	s.replanBudget()
}

func (s *refMCState) replanBudget() {
	now := s.eng.Now()
	if s.budgetEv != nil {
		s.eng.Cancel(s.budgetEv)
		s.budgetEv = nil
	}
	tte := s.acct.TimeToEmpty(now)
	if math.IsInf(tte, 1) {
		return
	}
	s.budgetEv = s.eng.Schedule(now+tte, s.onBudgetEmpty)
}

func (s *refMCState) onBudgetEmpty() {
	now := s.eng.Now()
	s.budgetEv = nil
	s.exhaustions++
	s.exhausted = true
	if s.tr != nil {
		active := 0
		for _, q := range s.running {
			if q.sprint {
				active++
			}
		}
		s.tr.Event(obs.QueryEvent{Type: obs.EvBudgetExhausted, Time: now, Query: -1, Value: float64(active)})
	}
	for _, q := range s.running {
		if !q.sprint {
			continue
		}
		q.tau = s.progress(q, now)
		q.seg = now
		s.acct.StopSprint(now)
		q.sprint = false
		s.res.SprintSeconds += now - q.sprintStart
		if s.tr != nil {
			s.emit(obs.EvSprintStop, now, q, now-q.sprintStart)
		}
		remaining := (1 - q.tau) * q.service
		q.departEv = s.eng.Reschedule(q.departEv, now+remaining)
	}
	s.replanBudget()
}

func (s *refMCState) depart(q *refMCQuery) {
	now := s.eng.Now()
	s.res.Duration = now
	if q.sprint {
		s.acct.StopSprint(now)
		q.sprint = false
		s.res.SprintSeconds += now - q.sprintStart
		if s.tr != nil {
			s.emit(obs.EvSprintStop, now, q, now-q.sprintStart)
		}
		s.replanBudget()
	}
	if s.tr != nil {
		s.emit(obs.EvDeparture, now, q, now-q.arrival)
	}
	if q.timeoutEv != nil {
		s.eng.Cancel(q.timeoutEv)
		q.timeoutEv = nil
	}
	for i, rq := range s.running {
		if rq == q {
			s.running = append(s.running[:i], s.running[i+1:]...)
			break
		}
	}
	q.running = false
	if !q.warm {
		rt := now - q.arrival
		s.res.RTs = append(s.res.RTs, rt)
		s.res.QueueingTimes = append(s.res.QueueingTimes, q.start-q.arrival)
		name := s.p.Classes[q.class].Name
		s.res.ByClass[name] = append(s.res.ByClass[name], rt)
		if q.sprinted {
			s.res.SprintedCount++
		}
	}
	s.free++
	s.dispatch()
}
