package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"mdsprint/internal/obs"
)

func TestPercentileReportsSampleCount(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if v, n := percentile(xs, 0.5); v != 3 || n != 5 {
		t.Fatalf("p50 = %v (n=%d), want 3 (n=5)", v, n)
	}
	if v, _ := percentile(xs, 0.99); v != 5 {
		t.Fatalf("p99 = %v, want 5", v)
	}
	if v, _ := percentile(xs, 0); v != 1 {
		t.Fatalf("p0 = %v, want 1", v)
	}
	if xs[0] != 5 {
		t.Fatal("percentile reordered its input")
	}
	if v, n := percentile(nil, 0.5); !math.IsNaN(v) || n != 0 {
		t.Fatalf("empty: %v (n=%d), want NaN (n=0)", v, n)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{{10, ""}, {19, ""}, {20, "p50"}, {99, "p50"}, {100, "p90"}, {999, "p90"}, {1000, "p99"}, {10000, "p99.9"}} {
		if got, _ := tailLabel(c.n); got != c.want {
			t.Errorf("tailLabel(%d) = %q, want %q", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	got := summarize(xs, 1e6, "us")
	if want := "p50 5e+08 us, p99 9.9e+08 us (n=1000)"; got != want {
		t.Fatalf("summarize = %q, want %q", got, want)
	}
	if got := summarize(xs[:5], 1, "s"); got != "p50 3 s (n=5)" {
		t.Fatalf("summarize of 5 = %q", got)
	}
}

func span(id, parent uint64, name string, start, end int64) obs.SpanData {
	return obs.SpanData{ID: id, Parent: parent, Name: name, StartNS: start, EndNS: end}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []obs.SpanData{
		span(1, 0, "core.train_hybrid", 0, 100),
		// Two parallel workers overlap on [20, 40): covered [10, 60).
		span(2, 1, "sweep.task", 10, 40),
		span(3, 1, "sweep.task", 20, 60),
		// A child that outlives its parent only covers up to 100.
		span(4, 1, "forest.train", 90, 130),
		// Nested in its own layer: part of span 2.
		span(5, 2, "sweep.eval", 15, 25),
		// The benchmark's span around a call, the program's span of the
		// same layer inside it, and the objective evaluations the call
		// makes, which nest under the benchmark's span only.
		span(10, 0, "explore.minimize", 1000, 2000),
		span(11, 10, "explore.minimize", 1010, 1990),
		span(12, 10, "core.predict_all", 1100, 1400),
		span(13, 10, "core.predict_all", 1500, 1900),
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30, 40, 40, 0, 1000 - 300 - 400, 0, 300, 400}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", spans[i].ID, got[i], want[i])
		}
	}
}

func TestAggregateByLayer(t *testing.T) {
	spans := []obs.SpanData{
		span(1, 0, "bench.policy", 0, 1000),
		span(2, 1, "core.train_hybrid", 0, 600),
		span(3, 2, "core.train_hybrid", 10, 590), // the program's own span under the benchmark's
		span(4, 3, "calib.record", 20, 400),
		span(5, 3, "calib.record", 300, 500),
		span(6, 3, "forest.train", 500, 580),
		span(7, 1, "colocate.fill_node", 600, 1000),
		span(8, 0, "transport.decide", 2000, 2100),
		span(9, 8, "server.decide", 2010, 2080),
	}
	agg := aggregate(spans, selfTimes(spans))
	want := map[string]layerStats{
		"bench":     {Spans: 1, BusyNS: 1000, SelfNS: 0},
		"core":      {Spans: 2, BusyNS: 600, SelfNS: 20 + (580 - 480 - 80)},
		"calib":     {Spans: 2, BusyNS: 480, SelfNS: 580},
		"forest":    {Spans: 1, BusyNS: 80, SelfNS: 80},
		"colocate":  {Spans: 1, BusyNS: 400, SelfNS: 400},
		"transport": {Spans: 1, BusyNS: 100, SelfNS: 30},
		"server":    {Spans: 1, BusyNS: 70, SelfNS: 70},
	}
	if len(agg) != len(want) {
		t.Fatalf("got %d layers, want %d: %v", len(agg), len(want), agg)
	}
	for l, w := range want {
		if g := agg[l]; g == nil || *g != w {
			t.Errorf("layer %s = %+v, want %+v", l, g, w)
		}
	}
	if layerOf("queuesim") != "queuesim" || layerOf("a.b.c") != "a" {
		t.Fatal("layerOf")
	}
}

func TestTracerCollectsLinkedRequests(t *testing.T) {
	tr := newTracer()
	ctx, client := tr.start(context.Background(), "transport.decide")
	sp := obs.SpanFromContext(ctx).StartChild("server.decide")
	sp.End()
	client.End()
	tr.collect()
	if tr.total != 2 || len(tr.handlerS["decide"]) != 1 || len(tr.selfTran) != 1 {
		t.Fatalf("collected %d spans, handler %v, transport %v", tr.total, tr.handlerS, tr.selfTran)
	}
	if tr.selfTran[0] < 0 {
		t.Fatalf("transport self time %v", tr.selfTran[0])
	}
	var off *tracer
	if c, s := off.start(context.Background(), "x"); s != nil || c != context.Background() {
		t.Fatal("nil tracer must not trace")
	}
	off.collect()
}

func TestMetricNames(t *testing.T) {
	for _, ok := range []string{"wall_s", "ann.busy_s", "p99.9-x", "0k"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", ".x", "_x", "a b", "a/b", "é", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, ok := range []string{"ms", "1/s", "%", "count", "MB"} {
		if !validUnit(ok) {
			t.Errorf("validUnit(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "m s", strings.Repeat("s", 17)} {
		if validUnit(bad) {
			t.Errorf("validUnit(%q) = true", bad)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the reported metric
// sets in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || !validName(w.Name) {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: %d in BENCHMARK.json, %d reported", len(spec.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	for i, m := range spec.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("end_to_end %d: %+v vs %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v", m.Name, m.Bound)
		}
		seen[m.Name] = true
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer: %d in BENCHMARK.json, %d reported", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer %d: %+v vs %+v", i, m, perLayer[i])
		}
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	for name := range seen {
		if !validName(name) {
			t.Errorf("invalid metric name %q", name)
		}
	}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !validUnit(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
}

func TestReportRejectsMissingAndNaN(t *testing.T) {
	specs := []metricSpec{{"a", "s", "lower"}}
	if _, err := report(specs, map[string]float64{}); err == nil {
		t.Fatal("missing metric accepted")
	}
	if _, err := report(specs, map[string]float64{"a": math.NaN()}); err == nil {
		t.Fatal("NaN accepted")
	}
	if _, err := report([]metricSpec{{"a b", "s", "lower"}}, map[string]float64{"a b": 1}); err == nil {
		t.Fatal("malformed name accepted")
	}
	got, err := report(specs, map[string]float64{"a": 1.5})
	if err != nil || got["a"] != (value{1.5, "s"}) {
		t.Fatalf("report = %v, %v", got, err)
	}
}

func TestParseProm(t *testing.T) {
	in := "# HELP x y\n# TYPE x counter\nx 3\ns{quantile=\"0.5\"} 0.25\ns_sum 1\n"
	m, err := parseProm(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m["x"] != 3 || m[`s{quantile="0.5"}`] != 0.25 || m["s_sum"] != 1 {
		t.Fatalf("parsed %v", m)
	}
	if _, err := parseProm(strings.NewReader("novalue\n")); err == nil {
		t.Fatal("line without a value accepted")
	}
}
