package main

import (
	"fmt"
	"math"
	"sort"
)

// metricSpec declares one reported metric. The two lists below must
// match BENCHMARK.json at the repository root (perfbench_test.go checks).
type metricSpec struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd is what a user of each workload sees. Every workload reports
// every one of them, and none can read 0.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_share", "ratio", "higher"},
}

// perLayer is what the traced run reports. A layer a workload does not
// run reads 0 on that workload. Counts and busy times are per unit of
// work (one figure pass, one pipeline pass, one serve round).
var perLayer = []metricSpec{
	{"ann.busy_s", "s", "lower"},
	{"ann.row_epochs", "count", "lower"},
	{"profiler.busy_s", "s", "lower"},
	{"profiler.runs", "count", "lower"},
	{"calib.busy_s", "s", "lower"},
	{"calib.self_s", "s", "lower"},
	{"calib.sim_evals", "count", "lower"},
	{"calib.converged_ratio", "ratio", "higher"},
	{"forest.busy_s", "s", "lower"},
	{"core.busy_s", "s", "lower"},
	{"core.hybrid_err", "ratio", "lower"},
	{"core.noml_err", "ratio", "lower"},
	{"core.ann_err", "ratio", "lower"},
	{"sweep.self_s", "s", "lower"},
	{"sweep.tasks", "count", "lower"},
	{"sweep.evals", "count", "lower"},
	{"sweep.hit_ratio", "ratio", "higher"},
	{"queuesim.events", "count", "lower"},
	{"queuesim.ns_per_event", "ns", "lower"},
	{"explore.busy_s", "s", "lower"},
	{"explore.self_s", "s", "lower"},
	{"explore.evals", "count", "lower"},
	{"explore.best_rt_s", "s", "lower"},
	{"colocate.busy_s", "s", "lower"},
	{"colocate.hosted", "count", "higher"},
	{"online.decide_us", "us", "lower"},
	{"online.retunes", "count", "lower"},
	{"online.demotions", "count", "lower"},
	{"tier.analytic", "count", "higher"},
	{"tier.full", "count", "lower"},
	{"tier.cheap_ratio", "ratio", "higher"},
	{"server.decide_p50_us", "us", "lower"},
	{"server.decide_p99_us", "us", "lower"},
	{"server.observe_p50_us", "us", "lower"},
	{"server.observe_p99_us", "us", "lower"},
	{"server.shed_ratio", "ratio", "lower"},
	{"transport.self_us", "us", "lower"},
	{"alloc.bytes_per_op", "B", "lower"},
	{"trace.spans", "count", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// validName reports whether s is a legal metric, workload or layer
// name: 1 to 64 of [A-Za-z0-9_.-], starting with a letter or digit.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || c != '_' && c != '.' && c != '-') {
			return false
		}
	}
	return true
}

// validUnit reports whether s is a legal unit: 1 to 16 of
// [A-Za-z0-9_/%.-].
func validUnit(s string) bool {
	if len(s) == 0 || len(s) > 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '_' || c == '/' || c == '%' || c == '.' || c == '-'
		if !ok {
			return false
		}
	}
	return true
}

// value is one reported metric value in the result line's shape.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report builds the result's metrics object for the given specs from
// measured values, failing when a name or unit is malformed or a value
// is missing or not finite.
func report(specs []metricSpec, got map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(specs))
	for _, s := range specs {
		if !validName(s.Name) || !validUnit(s.Unit) {
			return nil, fmt.Errorf("metric %q has a malformed name or unit %q", s.Name, s.Unit)
		}
		v, ok := got[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		out[s.Name] = value{Value: v, Unit: s.Unit}
	}
	return out, nil
}

// percentile returns the q-quantile (q in [0,1]) of xs by the
// nearest-rank method, with the sample count, or NaN for no samples.
// xs is not modified.
func percentile(xs []float64, q float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps 0.99*1000 at rank 990 despite rounding.
	rank := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return s[rank], n
}

// median is percentile(xs, 0.5) without the count.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// tailLabel names the highest of p99.9, p99, p90 and p50 that leaves at
// least ten of n samples above it, so a reported tail always rests on
// enough samples; "" when n is under 20.
func tailLabel(n int) (string, float64) {
	for _, t := range []struct {
		label    string
		permille int
	}{{"p99.9", 999}, {"p99", 990}, {"p90", 900}, {"p50", 500}} {
		rank := (n*t.permille + 999) / 1000 // nearest rank, 1-based
		if n-rank >= 10 {
			return t.label, float64(t.permille) / 1000
		}
	}
	return "", 0
}

// summarize renders a timing distribution as its median and highest
// well-supported tail, with the sample count.
func summarize(xs []float64, scale float64, unit string) string {
	p50, n := percentile(xs, 0.5)
	if n == 0 {
		return "no samples"
	}
	s := fmt.Sprintf("p50 %.4g %s", p50*scale, unit)
	if label, q := tailLabel(n); label != "" && label != "p50" {
		v, _ := percentile(xs, q)
		s += fmt.Sprintf(", %s %.4g %s", label, v*scale, unit)
	}
	return s + fmt.Sprintf(" (n=%d)", n)
}
