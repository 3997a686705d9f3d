package queuesim

import (
	"math"
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/sprint"
	"mdsprint/internal/stats"
)

// fuzzCorpusParams rebuilds the Params that FuzzRunDeterminism derives
// from each entry of its seed corpus.
func fuzzCorpusParams(t *testing.T) []Params {
	t.Helper()
	type entry struct {
		seed                        uint64
		arr, svc                    string
		timeout, budget, refillTime float64
		mode, slots, queries        uint8
		sprintRate                  float64
		disc                        string
		servers, dispPick           uint8
	}
	corpus := []entry{
		{1, "exp(1.2)", "exp(1)", 0.4, 5, 30, 0, 0, 40, 2, "fifo", 0, 0},
		{7, "pareto(0.4,2.5)", "lognormal(0.8,0.6)", 0.1, 2, 10, 1, 2, 63, 1.8, "srpt", 0, 0},
		{42, "det(0.8)", "erlang(3,4)", -1, 0, 0, 0, 1, 10, 0, "ps", 0, 0},
		{9, "uniform(0.1,0.9)", "hyperexp(0.7,2.5)", 0.05, 1, 5, 2, 7, 33, 0.5, "serpt(0.4)", 2, 1},
		{11, "exp(3)", "exp(2)", 0.2, 3, 20, 0, 0, 50, 1.5, "lifo", 3, 0},
	}
	var out []Params
	for _, e := range corpus {
		arrival, err := dist.ParseDist(e.arr)
		if err != nil {
			t.Fatal(err)
		}
		service, err := dist.ParseDist(e.svc)
		if err != nil {
			t.Fatal(err)
		}
		disc, err := ParseDiscipline(e.disc)
		if err != nil {
			t.Fatal(err)
		}
		p := Params{
			ArrivalRate:   1,
			Arrival:       arrival,
			Service:       service,
			ServiceRate:   1,
			SprintRate:    e.sprintRate,
			Timeout:       e.timeout,
			BudgetSeconds: e.budget,
			RefillTime:    e.refillTime,
			Refill:        sprint.RefillMode(e.mode % 3),
			Slots:         int(e.slots%8) + 1,
			NumQueries:    int(e.queries%64) + 1,
			Warmup:        int(e.queries % 8),
			Discipline:    disc,
			Seed:          e.seed,
		}
		if disc.Kind == DiscPS {
			p.Timeout = -1
			p.BudgetSeconds = 0
		}
		if n := int(e.servers % 4); n > 1 {
			p.Servers = n
			if e.dispPick%2 == 0 {
				p.Dispatch = rrDispatcher{}
			} else {
				p.Dispatch = jsqDispatcher{}
			}
		}
		out = append(out, p)
	}
	return out
}

// TestPredictMatchesSummarize diffs Predict, serial and parallel,
// against Summarize over the same replications pooled from RunReps, on
// FuzzRunDeterminism's seed-corpus scenarios: the selection-based
// summary must reproduce the sorted one bit for bit.
func TestPredictMatchesSummarize(t *testing.T) {
	for i, p := range fuzzCorpusParams(t) {
		for _, reps := range []int{1, 3} {
			runs, err := RunReps(p, reps)
			if err != nil {
				t.Fatal(err)
			}
			var pooled []float64
			for _, r := range runs {
				pooled = append(pooled, r.RTs...)
			}
			want := stats.Summarize(pooled)
			for _, workers := range []int{1, 2} {
				got, err := Predict(p, reps, workers)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got.MeanRT) != math.Float64bits(want.Mean) ||
					math.Float64bits(got.P95RT) != math.Float64bits(want.P95) ||
					math.Float64bits(got.P99RT) != math.Float64bits(want.P99) ||
					got.QueriesSimulated != len(pooled) || got.Replications != reps {
					t.Fatalf("corpus %d reps=%d workers=%d: Predict %+v, Summarize mean=%v p95=%v p99=%v n=%d",
						i, reps, workers, got, want.Mean, want.P95, want.P99, len(pooled))
				}
			}
		}
	}
}

// TestPredictZeroAllocs pins serial Predict at zero steady-state
// allocations: the replications' result and pooled response times live
// in the pooled Runner, and the summary selects in place.
func TestPredictZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	for _, disc := range []Discipline{{Kind: DiscFIFO}, {Kind: DiscSRPT}} {
		t.Run(string(disc.canonical().Kind), func(t *testing.T) {
			p := allocParams()
			p.Discipline = disc
			for i := 0; i < 3; i++ {
				if _, err := Predict(p, 2, 1); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := Predict(p, 2, 1); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state serial Predict(%s) allocated %.1f objects per call, want 0", disc, allocs)
			}
		})
	}
}
