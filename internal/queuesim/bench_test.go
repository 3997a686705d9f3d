package queuesim

import (
	"testing"

	"mdsprint/internal/dist"
)

// benchParams is the Quick-scale workload used by `make bench-sim`: a
// moderately loaded single-slot server with sprinting, timeouts and a
// windowed budget, so every event type (arrival, timeout, depart,
// budget-empty) is exercised on the hot path.
func benchParams() Params {
	mu := 0.02
	return Params{
		ArrivalRate: 0.75 * mu,
		Service:     dist.LogNormalFromMeanCV(1/mu, 0.3),
		ServiceRate: mu,
		SprintRate:  1.5 * mu,
		Timeout:     60, BudgetSeconds: 300, RefillTime: 200,
		NumQueries: 1000, Warmup: 100,
		Seed: 11,
	}
}

// BenchmarkSimRun measures the public single-run entry point (pooled
// runner behind a sync.Pool; allocates only the returned Result).
func BenchmarkSimRun(b *testing.B) {
	p := benchParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i) + 1
		if _, err := Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimRunInto measures the reusable-runner path: steady state
// after the first iteration, zero allocations per run.
func BenchmarkSimRunInto(b *testing.B) {
	p := benchParams()
	r := NewRunner()
	var out Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i) + 1
		if err := r.RunInto(p, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimRunReference measures the retired heap-and-closure engine
// on the same workload, the baseline the pooled runner is diffed against.
func BenchmarkSimRunReference(b *testing.B) {
	p := benchParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i) + 1
		if _, err := runReference(p); err != nil {
			b.Fatal(err)
		}
	}
}

// benchReps matches the replication count a calibration probe issues per
// candidate policy.
const benchReps = 8

// BenchmarkSimRunReps measures the replication loop: one pooled runner
// reused across reps, results written into a reusable slice — zero
// allocations after the first iteration sizes the result vectors.
func BenchmarkSimRunReps(b *testing.B) {
	p := benchParams()
	out := make([]Result, benchReps)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i)*seedStride + 1
		if err := RunRepsInto(p, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimRunRepsReference replays the same replication schedule
// through the reference engine: fresh state, closures and slices per rep.
func BenchmarkSimRunRepsReference(b *testing.B) {
	p := benchParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		base := uint64(i)*seedStride + 1
		rp := p.Canonical()
		for rep := 0; rep < benchReps; rep++ {
			rp.Seed = repSeed(base, rep)
			if _, err := runReference(rp); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSimRunRepsSRPT replays the replication loop with the
// preemptive SRPT discipline: same workload, but every dispatch decision
// goes through the intrusive index heap and long jobs get preempted, so
// this row prices the ordered-ready-queue machinery against the FIFO
// ring (BenchmarkSimRunReps). Like the FIFO row it reuses the result
// slice, so both report zero steady-state allocations.
func BenchmarkSimRunRepsSRPT(b *testing.B) {
	p := benchParams()
	p.Discipline = Discipline{Kind: DiscSRPT}
	out := make([]Result, benchReps)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i)*seedStride + 1
		if err := RunRepsInto(p, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredict measures the serial prediction primitive at the
// experiment scales' simulation shapes (Quick: 2000 queries x 2 reps;
// Full: 4000 x 3): the replications plus the pooled mean, P95 and P99.
// The seed varies per iteration, as it does across a sweep's tasks.
func BenchmarkPredict(b *testing.B) {
	for _, shape := range []struct {
		name          string
		queries, reps int
	}{{"quick", 2000, 2}, {"full", 4000, 3}} {
		b.Run(shape.name, func(b *testing.B) {
			p := benchParams()
			p.NumQueries = shape.queries
			p.Warmup = shape.queries / 10
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Seed = uint64(i)*seedStride + 1
				if _, err := Predict(p, shape.reps, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
