// Command perfbench is the repository benchmark: three workloads that
// between them drive every layer of the reproduction path and of the
// sprintd serving path, each from a seed, with their outputs checked.
//
//	bash perfbench/run.sh --workload fig7 --seed 1 --seconds 40 --trace 0
//
// run.sh builds it and runs it from the repository root.
// Human-readable lines go to standard output; the last line is one JSON
// object with the fields correct, attempted, failed and metrics. With
// --trace 0 the metrics are the end-to-end set, measured untraced; with
// --trace 1 they are the per-layer set, from a run that alternates
// traced and untraced units of work. See README.md for the workloads
// and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is one workload after set-up.
type env interface {
	// unit performs one unit of work, tracing it when tr is non-nil,
	// and returns how many operations it sent.
	unit(ctx context.Context, tr *tracer, acc *acct) int
	// finish runs the checks that need the whole run.
	finish(ctx context.Context, acc *acct)
	// layers adds the workload's per-layer metrics for units measured
	// units, traced of them traced.
	layers(units, traced int, tr *tracer, out map[string]float64)
	// summary renders the workload's results for people.
	summary() []string
	close() error
}

// workloadDef names a workload and how to set it up from a seed. The
// tracer is the run's (nil untraced), for workloads that must install
// their wrappers at set-up.
type workloadDef struct {
	name  string
	setup func(seed uint64, tr *tracer) (env, error)
}

var workloads = []workloadDef{
	{"fig7", setupFig7},
	{"policy", setupPolicy},
	{"serve", setupServe},
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 11

// acct counts operations and output checks; a failed one of either is
// a failure. Safe for concurrent use.
type acct struct {
	mu                sync.Mutex
	attempted, failed int
	failures          map[string]int
	first             map[string]string
}

func newAcct() *acct {
	return &acct{failures: map[string]int{}, first: map[string]string{}}
}

func (a *acct) record(name string, ok bool, detail func() string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.attempted++
	if !ok {
		a.failed++
		if a.failures[name] == 0 {
			a.first[name] = detail()
		}
		a.failures[name]++
	}
	return ok
}

// op records one call into the program.
func (a *acct) op(name string, err error) bool {
	return a.record(name, err == nil, func() string { return fmt.Sprint(err) })
}

// check records one output check.
func (a *acct) check(name string, ok bool, format string, args ...any) bool {
	return a.record(name, ok, func() string { return fmt.Sprintf(format, args...) })
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: fig7, policy or serve")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Float64("seconds", 40, "how long to measure")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool) error {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == name {
			def = &workloads[i]
		}
	}
	if def == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	ctx := context.Background()
	host := fingerprint()
	fmt.Printf("host %s\n", host)
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", name, seed, seconds, traced)

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var setups []float64
	var e env
	for i := 0; i < setupReps; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if e, err = def.setup(seed, tr); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, elapsed(t0))
	}

	// Units run until the next one would overrun --seconds. A traced run
	// alternates traced and untraced units, starting traced, so it
	// always has at least one of each.
	acc := newAcct()
	var walls, tracedWalls []float64
	var ops, untracedOps int
	var allocBytes uint64
	total0, steal0 := cpuTicks()
	start := time.Now()
	last := 0.0
	for n := 0; ; n++ {
		if n > 0 && !(traced && n < 2) && elapsed(start)+last > seconds {
			break
		}
		var utr *tracer
		if traced && n%2 == 0 {
			utr = tr
		}
		var ms runtime.MemStats
		if traced && utr == nil {
			runtime.ReadMemStats(&ms)
		}
		t0 := time.Now()
		k := e.unit(ctx, utr, acc)
		last = elapsed(t0)
		ops += k
		if utr != nil {
			tracedWalls = append(tracedWalls, last)
			utr.collect()
			continue
		}
		walls = append(walls, last)
		untracedOps += k
		if traced {
			before := ms.TotalAlloc
			runtime.ReadMemStats(&ms)
			allocBytes += ms.TotalAlloc - before
		}
	}
	loopSeconds := elapsed(start)
	if total1, steal1 := cpuTicks(); total1 > total0 {
		host.StealShare = float64(steal1-steal0) / float64(total1-total0)
	}
	e.finish(ctx, acc)
	units := len(walls) + len(tracedWalls)

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return fmt.Errorf("getrusage: %w", err)
	}
	got := map[string]float64{
		"setup_s":     median(setups),
		"wall_s":      median(walls),
		"peak_rss_mb": float64(ru.Maxrss) / 1024, // Linux reports KiB
		"ok_share":    float64(acc.attempted-acc.failed) / float64(acc.attempted),
	}
	specs := endToEnd
	if traced {
		specs = perLayer
		got = map[string]float64{}
		for _, s := range perLayer {
			got[s.Name] = 0
		}
		e.layers(units, len(tracedWalls), tr, got)
		got["alloc.bytes_per_op"] = float64(allocBytes) / float64(untracedOps)
		got["trace.spans"] = float64(tr.total) / float64(len(tracedWalls))
		got["trace.overhead_ratio"] = median(tracedWalls) / median(walls)
	}
	metrics, err := report(specs, got)
	if err != nil {
		return err
	}

	fmt.Printf("ran %d units (%d traced) in %.3f s, %d operations; %.4g units/s, %.4g ops/s untraced; host steal %.1f%%\n",
		units, len(tracedWalls), loopSeconds, ops,
		float64(len(walls))/sum(walls), float64(untracedOps)/sum(walls), 100*host.StealShare)
	fmt.Printf("setup %s\n", summarize(setups, 1, "s"))
	fmt.Printf("unit wall %s\n", summarize(walls, 1, "s"))
	if len(walls) <= 20 {
		fmt.Printf("unit walls %.4g s\n", walls)
	}
	for _, line := range e.summary() {
		fmt.Println(line)
	}
	if traced {
		fmt.Printf("trace overhead: traced unit median %.6g s vs untraced %.6g s (ratio %.4f); %d spans recorded, %d dropped\n",
			median(tracedWalls), median(walls), got["trace.overhead_ratio"], tr.total, tr.dropped)
		for _, line := range tr.selfTable(len(tracedWalls)) {
			fmt.Println(line)
		}
	}
	for _, s := range specs {
		fmt.Printf("metric %-24s %14.6g %s\n", s.Name, metrics[s.Name].Value, s.Unit)
	}
	names := make([]string, 0, len(acc.failures))
	for n := range acc.failures {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("FAILED %s: %d time(s), first: %s\n", n, acc.failures[n], acc.first[n])
	}
	fmt.Printf("checks: %d attempted, %d failed\n", acc.attempted, acc.failed)

	if err := e.close(); err != nil {
		return fmt.Errorf("shutting down: %w", err)
	}
	res := result{Correct: acc.failed == 0, Attempted: acc.attempted, Failed: acc.failed, Metrics: metrics}
	if err := writeRecord(name, seed, traced, host, res, tr); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// outDir is where runs leave their records, inside the build directory
// the repository ignores.
func outDir() string {
	d := os.Getenv("CARGO_TARGET_DIR")
	if d == "" {
		d = ".bench_build"
	}
	return filepath.Join(d, "perfbench")
}

// writeRecord saves the run's result with its host fingerprint, and
// the traced run's spans.
func writeRecord(name string, seed uint64, traced bool, host hostInfo, res result, tr *tracer) error {
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", name, seed, map[bool]int{false: 0, true: 1}[traced]))
	data, err := json.MarshalIndent(struct {
		Host   hostInfo `json:"host"`
		Result result   `json:"result"`
	}{host, res}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if tr != nil {
		return tr.writeSpans(base + ".spans.jsonl")
	}
	return nil
}

// hostInfo fingerprints the machine and the code a result came from.
type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	// StealShare is the share of the machine's CPU time that went to
	// other guests ("steal" in /proc/stat) while the units ran; on a
	// shared host it accounts for much of the run-to-run spread.
	StealShare float64 `json:"steal_share"`
}

// cpuTicks reads the machine's total and stolen CPU ticks from
// /proc/stat, or zeros where that is unavailable.
func cpuTicks() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

func (h hostInfo) String() string {
	return fmt.Sprintf("gomaxprocs=%d nproc=%d cpu=%q go=%s commit=%s", h.GOMAXPROCS, h.NumCPU, h.CPU, h.Go, h.Commit)
}

func fingerprint() hostInfo {
	h := hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        "unknown",
		Go:         runtime.Version(),
		Commit:     os.Getenv("PERFBENCH_COMMIT"),
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
