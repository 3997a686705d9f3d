// Package sim provides the discrete-event simulation engine: a monotonic
// virtual clock and a cancellable event queue. Both the ground-truth
// testbed (internal/testbed) and the model-side queue simulator
// (internal/queuesim) run on it.
//
// The paper's reference simulator (Algorithm 1) steps a microsecond-
// resolution clock; scheduling events on a heap is semantically equivalent
// (queuesim's tests cross-validate against a faithful tick-stepped
// implementation) and orders of magnitude faster, which is what makes the
// policy-space exploration of Section 4 practical.
//
// The engine allocates nothing per event, because the millions of
// queuesim runs a policy search performs (Section 3.6) would otherwise be
// dominated by allocation. Events live in a reusable slot pool addressed
// by generation-checked Handles, callbacks are registered once per
// consumer and invoked by CallbackID with an int32 argument (typically a
// pooled-object index), and the priority queue is an index heap over the
// slab. Steady-state scheduling, cancelling and firing perform zero heap
// allocations.
//
// Events fire in (time, seq) order with seq assigned at Schedule time, so
// same-time events fire in scheduling order; cancelled events are
// unlinked eagerly and never fire. queuesim's tests keep the original
// heap-and-closure engine as an oracle and check that both fire the same
// events in the same order.
package sim

import "fmt"

// CallbackID names a callback registered with PooledEngine.Register.
type CallbackID int32

// Handle identifies a scheduled event. Handles are generation-checked:
// once the event fires or is cancelled, its slot is recycled and the old
// handle goes stale — Cancel and Reschedule on a stale handle are safe
// no-ops, never a corruption of the slot's next tenant. The zero Handle is
// always stale. Handles must not be retained across Reset.
type Handle struct {
	idx int32
	gen uint32
}

// slot is one pooled event. Slots are recycled through a free list; gen
// increments on every release so stale Handles can be detected. heapIdx is
// the slot's position in the index heap, -1 while free.
type slot struct {
	time    float64
	seq     uint64
	gen     uint32
	heapIdx int32
	cb      CallbackID
	arg     int32
}

// PooledEngine is a discrete-event simulator core with pooled events and
// registered callbacks. It is not safe for concurrent use; run one per
// goroutine. The zero value is ready to use, but consumers normally call
// NewPooled and Register their callbacks once, then Reset between runs to
// reuse the slab.
type PooledEngine struct {
	now   float64
	seq   uint64
	slots []slot
	free  []int32 // recycled slot indices
	heap  []int32 // slot indices ordered by (time, seq)
	cbs   []func(arg int32)

	live      int // scheduled, unfired, uncancelled events
	highWater int // max live over the engine's lifetime since Reset
}

// NewPooled returns a pooled engine with the clock at zero.
func NewPooled() *PooledEngine {
	//lint:ignore hotalloc one engine per Runner, constructed on first use and recycled thereafter
	return &PooledEngine{}
}

// Register adds a callback and returns its ID. Callbacks are registered
// once per engine (they survive Reset); Schedule refers to them by ID so
// no per-event closure is ever allocated.
func (e *PooledEngine) Register(fn func(arg int32)) CallbackID {
	if fn == nil {
		panic("sim: nil callback")
	}
	e.cbs = append(e.cbs, fn)
	return CallbackID(len(e.cbs) - 1)
}

// Now returns the current virtual time.
func (e *PooledEngine) Now() float64 { return e.now }

// Pending returns the number of scheduled (unfired, uncancelled) events.
func (e *PooledEngine) Pending() int { return e.live }

// HighWater returns the maximum number of simultaneously pending events
// since the last Reset — the slab's high-water mark.
func (e *PooledEngine) HighWater() int { return e.highWater }

// Reset rewinds the clock to zero and empties the event set while keeping
// the slab, heap and free-list capacity (and all registered callbacks), so
// a runner can replay back-to-back simulations without reallocating.
// Handles issued before Reset must not be used afterwards.
func (e *PooledEngine) Reset() {
	e.now = 0
	e.seq = 0
	e.slots = e.slots[:0]
	e.free = e.free[:0]
	e.heap = e.heap[:0]
	e.live = 0
	e.highWater = 0
}

// Schedule registers callback cb to run with arg at time at. Scheduling in
// the past (before Now) panics: it would silently corrupt causality.
// Events at the identical time fire in scheduling order.
func (e *PooledEngine) Schedule(at float64, cb CallbackID, arg int32) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if cb < 0 || int(cb) >= len(e.cbs) {
		panic(fmt.Sprintf("sim: unregistered callback %d", cb))
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
		s := &e.slots[idx]
		s.time, s.seq, s.cb, s.arg = at, e.seq, cb, arg
	} else {
		e.slots = append(e.slots, slot{time: at, seq: e.seq, gen: 1, cb: cb, arg: arg})
		idx = int32(len(e.slots) - 1)
	}
	e.seq++
	e.heapPush(idx)
	e.live++
	if e.live > e.highWater {
		e.highWater = e.live
	}
	return Handle{idx: idx, gen: e.slots[idx].gen}
}

// After schedules cb(arg) delay time units from now.
func (e *PooledEngine) After(delay float64, cb CallbackID, arg int32) Handle {
	return e.Schedule(e.now+delay, cb, arg)
}

// lookup resolves h to its slot index if h is current, or -1 when h is
// stale (zero, already fired, cancelled, or from before a Reset).
func (e *PooledEngine) lookup(h Handle) int32 {
	if h.gen == 0 || int(h.idx) >= len(e.slots) {
		return -1
	}
	s := &e.slots[h.idx]
	if s.gen != h.gen || s.heapIdx < 0 {
		return -1
	}
	return h.idx
}

// Cancel removes the event named by h so it never fires, reporting whether
// anything was cancelled. Cancelling a stale handle (zero, already fired,
// already cancelled) is a no-op returning false.
func (e *PooledEngine) Cancel(h Handle) bool {
	idx := e.lookup(h)
	if idx < 0 {
		return false
	}
	e.heapRemove(e.slots[idx].heapIdx)
	e.freeSlot(idx)
	return true
}

// Reschedule cancels h and schedules a fresh event with the same callback
// and argument at time at, returning the new handle. A stale h is a no-op
// returning the zero Handle — it must never resurrect a recycled slot.
func (e *PooledEngine) Reschedule(h Handle, at float64) Handle {
	idx := e.lookup(h)
	if idx < 0 {
		return Handle{}
	}
	cb, arg := e.slots[idx].cb, e.slots[idx].arg
	e.heapRemove(e.slots[idx].heapIdx)
	e.freeSlot(idx)
	return e.Schedule(at, cb, arg)
}

// freeSlot releases idx back to the pool, bumping its generation so
// outstanding handles to it go stale.
func (e *PooledEngine) freeSlot(idx int32) {
	s := &e.slots[idx]
	s.gen++
	s.heapIdx = -1
	e.free = append(e.free, idx)
	e.live--
}

// Step fires the next event. It reports false when no events remain. The
// slot is released before the callback runs, so callbacks can schedule
// new events that reuse it (the fired event's own handle goes stale at
// that moment).
//
//sprint:hotpath event dispatch fires millions of times per run (BenchmarkPooledEngine)
func (e *PooledEngine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	idx := e.heap[0]
	s := &e.slots[idx]
	t, cb, arg := s.time, s.cb, s.arg
	e.heapRemove(0)
	e.freeSlot(idx)
	e.now = t
	e.cbs[cb](arg)
	return true
}

// Run fires events until the queue is empty or until the next event is
// strictly after limit (the clock then rests at limit). It returns the
// number of events fired.
func (e *PooledEngine) Run(limit float64) int {
	fired := 0
	for {
		if len(e.heap) == 0 {
			return fired
		}
		if e.slots[e.heap[0]].time > limit {
			e.now = limit
			return fired
		}
		e.Step()
		fired++
	}
}

// RunAll fires events until none remain, returning the count. Use only
// with workloads that are guaranteed to quiesce, otherwise this loops
// forever.
func (e *PooledEngine) RunAll() int {
	fired := 0
	for e.Step() {
		fired++
	}
	return fired
}

// less orders slot indices by (time, seq).
func (e *PooledEngine) less(a, b int32) bool {
	sa, sb := &e.slots[a], &e.slots[b]
	//lint:ignore floateq heap comparator must order exact event times; an epsilon here would corrupt FIFO tie-breaking
	if sa.time != sb.time {
		return sa.time < sb.time
	}
	return sa.seq < sb.seq
}

// heapPush appends idx and restores the heap invariant.
func (e *PooledEngine) heapPush(idx int32) {
	e.heap = append(e.heap, idx)
	i := len(e.heap) - 1
	e.slots[idx].heapIdx = int32(i)
	e.siftUp(i)
}

// heapRemove unlinks the element at heap position i.
func (e *PooledEngine) heapRemove(hi int32) {
	i, n := int(hi), len(e.heap)-1
	if i != n {
		e.swap(i, n)
	}
	e.heap = e.heap[:n]
	if i != n {
		e.siftDown(i)
		e.siftUp(i)
	}
}

func (e *PooledEngine) swap(i, j int) {
	e.heap[i], e.heap[j] = e.heap[j], e.heap[i]
	e.slots[e.heap[i]].heapIdx = int32(i)
	e.slots[e.heap[j]].heapIdx = int32(j)
}

func (e *PooledEngine) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(e.heap[i], e.heap[parent]) {
			return
		}
		e.swap(i, parent)
		i = parent
	}
}

func (e *PooledEngine) siftDown(i int) {
	n := len(e.heap)
	for {
		smallest := i
		if l := 2*i + 1; l < n && e.less(e.heap[l], e.heap[smallest]) {
			smallest = l
		}
		if r := 2*i + 2; r < n && e.less(e.heap[r], e.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		e.swap(i, smallest)
		i = smallest
	}
}
