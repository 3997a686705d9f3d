package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"mdsprint/internal/obs"
)

// The traced run records spans with the program's own obs.SpanTracer,
// but starts them only from this package, around the calls into each
// layer. Program spans that already nest under a context-carried span
// (core.train_hybrid, calib.record, forest.train, sweep.*, online.*)
// land in the same tree, which splits the calls the benchmark can only
// time from outside.

// layerOf names a span's layer: the part of its name before the first
// dot ("calib.record" is layer calib).
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// interval is a half-open [lo, hi) stretch of trace time in ns.
type interval struct{ lo, hi int64 }

// unionLen returns the total length covered by ivs, counting time
// covered by several intervals once. ivs is reordered.
func unionLen(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		if iv.hi <= iv.lo {
			continue
		}
		if !open || iv.lo > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = iv.lo, iv.hi, true
			continue
		}
		if iv.hi > curHi {
			curHi = iv.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children (the
// sweep engine's parallel workers) are counted once, and a child's time
// outside its parent's interval is not subtracted.
//
// A span whose parent is of its own layer is part of that parent: it
// reads 0, and its children count as the parent's. That is what keeps
// the benchmark's span around a call (explore.minimize) and the
// program's own span inside it (explore.minimize again) from both
// claiming the time of work nested under only one of them.
func selfTimes(spans []obs.SpanData) []int64 {
	index := make(map[uint64]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	parent := func(i int) (int, bool) {
		p, ok := index[spans[i].Parent]
		return p, ok && spans[i].Parent != 0
	}
	// top[i] is the outermost span of i's same-layer chain.
	top := make([]int, len(spans))
	for i := range spans {
		t := i
		for p, ok := parent(t); ok && layerOf(spans[p].Name) == layerOf(spans[t].Name); p, ok = parent(t) {
			t = p
		}
		top[i] = t
	}
	children := make(map[int][]interval)
	for i, s := range spans {
		p, ok := parent(i)
		if !ok || top[i] != i {
			continue
		}
		t := top[p]
		lo, hi := s.StartNS, s.EndNS
		if lo < spans[t].StartNS {
			lo = spans[t].StartNS
		}
		if hi > spans[t].EndNS {
			hi = spans[t].EndNS
		}
		children[t] = append(children[t], interval{lo, hi})
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		if top[i] == i {
			out[i] = s.EndNS - s.StartNS - unionLen(children[i])
		}
	}
	return out
}

// layerStats aggregates one layer's spans.
type layerStats struct {
	Spans int
	// BusyNS is the time at least one of the layer's spans was open:
	// nested or parallel spans of one layer count once.
	BusyNS int64
	// SelfNS sums the self time of the layer's spans.
	SelfNS int64
}

// aggregate folds spans, with their selfTimes, into per-layer
// statistics.
func aggregate(spans []obs.SpanData, self []int64) map[string]*layerStats {
	out := make(map[string]*layerStats)
	busy := make(map[string][]interval)
	for i, s := range spans {
		l := layerOf(s.Name)
		st := out[l]
		if st == nil {
			st = &layerStats{}
			out[l] = st
		}
		st.Spans++
		st.SelfNS += self[i]
		busy[l] = append(busy[l], interval{s.StartNS, s.EndNS})
	}
	for l, ivs := range busy {
		out[l].BusyNS = unionLen(ivs)
	}
	return out
}

// maxKeptSpans bounds how many spans a run keeps for the trace file;
// the serve workload finishes hundreds of thousands, all of which are
// aggregated but only this many written out.
const maxKeptSpans = 50000

// tracer records one run's spans. A nil *tracer is tracing off: start
// and collect are no-ops on it, so workloads call them unconditionally.
type tracer struct {
	t *obs.SpanTracer

	// live maps a client span's id to the span while its request is in
	// flight, so the server-side handler can parent its span to it from
	// the request-ID header alone.
	live sync.Map

	mu       sync.Mutex
	layers   map[string]*layerStats
	kept     []obs.SpanData
	total    int
	handlerS map[string][]float64 // server handler span seconds by op
	selfTran []float64            // per-request client-minus-handler seconds
	dropped  uint64
}

func newTracer() *tracer {
	return &tracer{
		// Drained after every unit of work; a serve round finishes a
		// few thousand spans.
		t:        obs.NewSpanTracer(obs.SpanOptions{MaxSpans: 1 << 18}),
		layers:   make(map[string]*layerStats),
		handlerS: make(map[string][]float64),
	}
}

// start opens a span under the one ctx carries (a root otherwise) and
// returns a ctx carrying the new span.
func (tr *tracer) start(ctx context.Context, name string) (context.Context, *obs.Span) {
	if tr == nil {
		return ctx, nil
	}
	var sp *obs.Span
	if parent := obs.SpanFromContext(ctx); parent != nil {
		sp = parent.StartChild(name)
	} else {
		sp = tr.t.StartSpan(name)
	}
	return obs.ContextWithSpan(ctx, sp), sp
}

// collect drains the finished spans into the run's aggregates.
func (tr *tracer) collect() {
	if tr == nil {
		return
	}
	spans := tr.t.Drain()
	self := selfTimes(spans)
	agg := aggregate(spans, self)
	over, _ := tr.t.Dropped()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.dropped = over
	tr.total += len(spans)
	for l, st := range agg {
		acc := tr.layers[l]
		if acc == nil {
			acc = &layerStats{}
			tr.layers[l] = acc
		}
		acc.Spans += st.Spans
		acc.BusyNS += st.BusyNS
		acc.SelfNS += st.SelfNS
	}
	for i, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "server."):
			op := strings.TrimPrefix(s.Name, "server.")
			tr.handlerS[op] = append(tr.handlerS[op], float64(s.EndNS-s.StartNS)/1e9)
		case strings.HasPrefix(s.Name, "transport."):
			tr.selfTran = append(tr.selfTran, float64(self[i])/1e9)
		}
	}
	if room := maxKeptSpans - len(tr.kept); room > 0 {
		if room > len(spans) {
			room = len(spans)
		}
		tr.kept = append(tr.kept, spans[:room]...)
	}
}

// layer returns the aggregate for one layer (zero when it never ran).
func (tr *tracer) layer(name string) layerStats {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if st := tr.layers[name]; st != nil {
		return *st
	}
	return layerStats{}
}

// selfTable renders every layer's self and busy time, largest self
// time first.
func (tr *tracer) selfTable(units int) []string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	names := make([]string, 0, len(tr.layers))
	for l := range tr.layers {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := tr.layers[names[i]], tr.layers[names[j]]
		if a.SelfNS != b.SelfNS {
			return a.SelfNS > b.SelfNS
		}
		return names[i] < names[j]
	})
	out := make([]string, 0, len(names))
	for _, l := range names {
		st := tr.layers[l]
		out = append(out, fmt.Sprintf("layer %-10s self %10.6f s  busy %10.6f s  spans %8.1f  (per traced unit, %d units)",
			l, float64(st.SelfNS)/1e9/float64(units), float64(st.BusyNS)/1e9/float64(units),
			float64(st.Spans)/float64(units), units))
	}
	return out
}

// writeSpans writes the kept spans as JSON lines.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	tr.mu.Lock()
	for _, s := range tr.kept {
		if err := enc.Encode(s); err != nil {
			tr.mu.Unlock()
			f.Close()
			return err
		}
	}
	tr.mu.Unlock()
	return f.Close()
}

// reqHeader carries the client span's id to the server, which is all
// that links the two sides of one request.
const reqHeader = "X-Bench-Request"

// transport tags each traced request with its client span's id.
type transport struct {
	tr   *tracer
	next http.RoundTripper
}

func (t transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if sp := obs.SpanFromContext(req.Context()); sp != nil {
		id := sp.ID()
		t.tr.live.Store(id, sp)
		defer t.tr.live.Delete(id)
		req = req.Clone(req.Context())
		req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	}
	return t.next.RoundTrip(req)
}

// CloseIdleConnections lets http.Client.CloseIdleConnections reach the
// wrapped transport.
func (t transport) CloseIdleConnections() {
	if c, ok := t.next.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// handler wraps the daemon's handler with one span per tagged request,
// parented to the client span named in the request-ID header.
func (tr *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		v, ok := tr.live.Load(id)
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		sp := v.(*obs.Span).StartChild("server." + strings.TrimPrefix(r.URL.Path, "/v1/"))
		next.ServeHTTP(w, r.WithContext(obs.ContextWithSpan(r.Context(), sp)))
		sp.End()
	})
}
