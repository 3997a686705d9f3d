package queuesim

import (
	"container/heap"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"mdsprint/internal/dist"
	"mdsprint/internal/sim"
)

// This file holds the heap-and-closure event engine the reference
// simulator (reference_test.go) runs on, with its unit tests. It
// allocates one *refEvent plus one refAction closure per scheduled event;
// sim.PooledEngine replaces both with a slab. The differential suite
// compares the two simulators bit for bit, and
// TestPooledMatchesEngineRandomized compares the two engines directly.

// refAction is the callback invoked when an event fires. The engine clock has
// already advanced to the event's time when the action runs.
type refAction func()

// refEvent is a scheduled callback. Events are created by refEngine.Schedule and
// may be cancelled before they fire.
type refEvent struct {
	time      float64
	seq       uint64 // tie-breaker: FIFO among same-time events
	action    refAction
	index     int // heap index, -1 once removed
	cancelled bool
}

// Time returns the virtual time at which the event fires.
func (e *refEvent) Time() float64 { return e.time }

// Cancelled reports whether Cancel was called on the event.
func (e *refEvent) Cancelled() bool { return e.cancelled }

// refEventHeap orders events by (time, seq).
type refEventHeap []*refEvent

func (h refEventHeap) Len() int { return len(h) }
func (h refEventHeap) Less(i, j int) bool {
	//lint:ignore floateq heap comparator must order exact event times; an epsilon here would corrupt FIFO tie-breaking
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h refEventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refEventHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refEventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// refEngine is a discrete-event simulator core. It is not safe for concurrent
// use; run one refEngine per goroutine.
type refEngine struct {
	now    float64
	seq    uint64
	events refEventHeap
}

// newRefEngine returns an engine with the clock at zero.
func newRefEngine() *refEngine {
	return &refEngine{}
}

// Now returns the current virtual time.
func (e *refEngine) Now() float64 { return e.now }

// Pending returns the number of scheduled (uncancelled) events.
func (e *refEngine) Pending() int {
	n := 0
	for _, ev := range e.events {
		if !ev.cancelled {
			n++
		}
	}
	return n
}

// Schedule registers action to run at time at. Scheduling in the past
// (before Now) panics: it would silently corrupt causality. Events at the
// identical time fire in scheduling order.
func (e *refEngine) Schedule(at float64, action refAction) *refEvent {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if action == nil {
		panic("sim: nil action")
	}
	ev := &refEvent{time: at, seq: e.seq, action: action}
	e.seq++
	heap.Push(&e.events, ev)
	return ev
}

// After schedules action delay time units from now.
func (e *refEngine) After(delay float64, action refAction) *refEvent {
	return e.Schedule(e.now+delay, action)
}

// Cancel marks an event so it will not fire. Cancelling an already-fired or
// already-cancelled event is a no-op. The event is dropped lazily when it
// reaches the top of the heap.
func (e *refEngine) Cancel(ev *refEvent) {
	if ev == nil {
		return
	}
	ev.cancelled = true
}

// Reschedule cancels ev and schedules a fresh event with the same action at
// time at, returning the new event. It is the supported way to move a
// departure or timeout after a sprint changes processing speed.
func (e *refEngine) Reschedule(ev *refEvent, at float64) *refEvent {
	if ev == nil {
		panic("sim: reschedule of nil event")
	}
	action := ev.action
	e.Cancel(ev)
	return e.Schedule(at, action)
}

// Step fires the next event. It reports false when no events remain.
func (e *refEngine) Step() bool {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*refEvent)
		if ev.cancelled {
			continue
		}
		e.now = ev.time
		ev.action()
		return true
	}
	return false
}

// Run fires events until the queue is empty or until the next event is
// strictly after limit (the clock then rests at min(limit, last event
// time)). It returns the number of events fired.
func (e *refEngine) Run(limit float64) int {
	fired := 0
	for {
		// Skip over cancelled events without advancing the clock.
		for len(e.events) > 0 && e.events[0].cancelled {
			heap.Pop(&e.events)
		}
		if len(e.events) == 0 {
			return fired
		}
		if e.events[0].time > limit {
			e.now = limit
			return fired
		}
		e.Step()
		fired++
	}
}

// RunAll fires events until none remain, returning the count. Use only
// with workloads that are guaranteed to quiesce (e.g. a finite set of
// queries with no regenerating timer), otherwise this loops forever.
func (e *refEngine) RunAll() int {
	fired := 0
	for e.Step() {
		fired++
	}
	return fired
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := newRefEngine()
	var order []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		e.Schedule(at, func() { order = append(order, at) })
	}
	e.RunAll()
	if !sort.Float64sAreSorted(order) {
		t.Fatalf("events fired out of order: %v", order)
	}
	if len(order) != 5 {
		t.Fatalf("fired %d events, want 5", len(order))
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := newRefEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(7, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := newRefEngine()
	e.Schedule(2.5, func() {
		if e.Now() != 2.5 {
			t.Errorf("clock %v inside event, want 2.5", e.Now())
		}
	})
	e.RunAll()
	if e.Now() != 2.5 {
		t.Fatalf("final clock %v, want 2.5", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := newRefEngine()
	e.Schedule(5, func() {})
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(1, func() {})
}

func TestNilActionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil action did not panic")
		}
	}()
	newRefEngine().Schedule(1, nil)
}

func TestCancelPreventsFiring(t *testing.T) {
	e := newRefEngine()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	e.Cancel(ev)
	e.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("event not marked cancelled")
	}
}

func TestCancelNilIsNoop(t *testing.T) {
	e := newRefEngine()
	e.Cancel(nil) // must not panic
}

func TestReschedule(t *testing.T) {
	e := newRefEngine()
	var at float64
	ev := e.Schedule(10, func() { at = e.Now() })
	e.Schedule(1, func() { e.Reschedule(ev, 3) })
	e.RunAll()
	if at != 3 {
		t.Fatalf("rescheduled event fired at %v, want 3", at)
	}
}

func TestAfter(t *testing.T) {
	e := newRefEngine()
	var times []float64
	e.Schedule(4, func() {
		e.After(2, func() { times = append(times, e.Now()) })
	})
	e.RunAll()
	if len(times) != 1 || times[0] != 6 {
		t.Fatalf("After fired at %v, want [6]", times)
	}
}

func TestRunRespectsLimit(t *testing.T) {
	e := newRefEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(float64(i), func() { count++ })
	}
	fired := e.Run(5.5)
	if fired != 5 || count != 5 {
		t.Fatalf("Run(5.5) fired %d/%d, want 5", fired, count)
	}
	if e.Now() != 5.5 {
		t.Fatalf("clock %v after limited run, want 5.5", e.Now())
	}
	fired = e.Run(100)
	if fired != 5 || count != 10 {
		t.Fatalf("resumed run fired %d (total %d), want 5 (10)", fired, count)
	}
}

func TestRunSkipsCancelledWithoutAdvancing(t *testing.T) {
	e := newRefEngine()
	ev := e.Schedule(50, func() {})
	e.Cancel(ev)
	e.Schedule(2, func() {})
	if fired := e.Run(100); fired != 1 {
		t.Fatalf("fired %d, want 1", fired)
	}
}

func TestPendingCountsUncancelled(t *testing.T) {
	e := newRefEngine()
	a := e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	if e.Pending() != 2 {
		t.Fatalf("pending %d, want 2", e.Pending())
	}
	e.Cancel(a)
	if e.Pending() != 1 {
		t.Fatalf("pending %d after cancel, want 1", e.Pending())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := newRefEngine()
	var log []float64
	e.Schedule(1, func() {
		log = append(log, e.Now())
		e.Schedule(2, func() { log = append(log, e.Now()) })
	})
	e.RunAll()
	if len(log) != 2 || log[0] != 1 || log[1] != 2 {
		t.Fatalf("log = %v, want [1 2]", log)
	}
}

// Property: any random batch of schedules and cancels fires exactly the
// uncancelled events, in nondecreasing time order.
func TestRandomScheduleProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		r := dist.NewRNG(seed)
		e := newRefEngine()
		var fired []float64
		events := make([]*refEvent, n)
		times := make([]float64, n)
		for i := 0; i < n; i++ {
			at := r.Float64() * 1000
			times[i] = at
			events[i] = e.Schedule(at, func() { fired = append(fired, at) })
		}
		cancelled := map[int]bool{}
		for i := 0; i < n/3; i++ {
			idx := r.Intn(n)
			cancelled[idx] = true
			e.Cancel(events[idx])
		}
		e.RunAll()
		if len(fired) != n-len(cancelled) {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	r := dist.NewRNG(1)
	times := make([]float64, 1024)
	for i := range times {
		times[i] = r.Float64() * 1e6
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := newRefEngine()
		for _, at := range times {
			e.Schedule(at, func() {})
		}
		e.RunAll()
	}
}

// TestPooledMatchesEngineRandomized drives both engine implementations
// through an identical randomized schedule/cancel/reschedule script and
// requires the identical firing sequence — the engine-level differential
// behind queuesim's end-to-end suite.
func TestPooledMatchesEngineRandomized(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%80) + 5
		rng := dist.NewRNG(seed)

		type firing struct {
			label int32
			at    float64
		}
		var refFired, poolFired []firing

		ref := newRefEngine()
		refEvents := make([]*refEvent, n)
		pool := sim.NewPooled()
		poolCB := pool.Register(func(arg int32) {
			poolFired = append(poolFired, firing{arg, pool.Now()})
		})
		poolHandles := make([]sim.Handle, n)

		for i := 0; i < n; i++ {
			at := rng.Float64() * 100
			label := int32(i)
			refEvents[i] = ref.Schedule(at, func() {
				refFired = append(refFired, firing{label, ref.Now()})
			})
			poolHandles[i] = pool.Schedule(at, poolCB, label)
		}
		// Cancel a third, reschedule a third (same indices on both).
		// Cancelled indices are excluded from rescheduling: the lazy
		// engine happily resurrects a cancelled event's action while the
		// pooled engine's stale handle is a no-op — a divergence outside
		// the supported contract (consumers only reschedule live events).
		cancelled := make(map[int]bool)
		for i := 0; i < n/3; i++ {
			idx := rng.Intn(n)
			cancelled[idx] = true
			ref.Cancel(refEvents[idx])
			pool.Cancel(poolHandles[idx])
		}
		for i := 0; i < n/3; i++ {
			idx := rng.Intn(n)
			at := rng.Float64() * 100
			if cancelled[idx] {
				continue
			}
			refEvents[idx] = ref.Reschedule(refEvents[idx], at)
			poolHandles[idx] = pool.Reschedule(poolHandles[idx], at)
		}
		ref.RunAll()
		pool.RunAll()

		if len(refFired) != len(poolFired) {
			return false
		}
		for i := range refFired {
			if refFired[i] != poolFired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
