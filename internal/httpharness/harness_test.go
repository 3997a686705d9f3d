package httpharness

import (
	"context"
	"net/http/httptest"
	"sort"
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/sprint"
	"mdsprint/internal/stats"
)

// startManager spins up a manager behind an httptest server.
func startManager(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	return m, srv
}

// msPolicy builds a millisecond-scale sprinting policy.
func msPolicy(timeoutMs, budgetMs, refillMs float64) sprint.Policy {
	return sprint.Policy{
		Timeout:       timeoutMs / 1000,
		BudgetSeconds: budgetMs / 1000,
		RefillTime:    refillMs / 1000,
		Speedup:       2,
	}
}

func TestHTTPPipelineEndToEnd(t *testing.T) {
	// 60 queries of ~40 ms at ~80% utilization with generous budget:
	// the real HTTP pipeline must timestamp, queue FIFO, sprint on
	// timeouts, and answer every query.
	_, srv := startManager(t, Config{
		Policy:  msPolicy(30, 100000, 1000),
		Speedup: 2,
	})
	responses, err := RunCtx(context.Background(), GeneratorConfig{
		URL:          srv.URL,
		Interarrival: dist.NewExponential(1000.0 / 50), // mean 50 ms
		Service:      dist.LogNormalFromMeanCV(0.040, 0.2),
		NumQueries:   60,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(responses) != 60 {
		t.Fatalf("got %d responses", len(responses))
	}
	sprinted := 0
	for i, r := range responses {
		if r.Start < r.Arrival-1e-9 || r.Depart < r.Start {
			t.Fatalf("response %d timestamps out of order: %+v", i, r)
		}
		if r.Sprinted {
			sprinted++
		}
	}
	if sprinted == 0 {
		t.Fatal("no queries sprinted despite a 30 ms timeout")
	}
	// FIFO: dispatch order follows arrival order.
	starts := make([]float64, len(responses))
	arrivals := make([]float64, len(responses))
	for i, r := range responses {
		starts[i] = r.Start
		arrivals[i] = r.Arrival
	}
	if !sort.Float64sAreSorted(arrivals) {
		// Run returns responses in planned arrival order; tiny client
		// scheduling jitter can reorder near-simultaneous arrivals.
		t.Log("arrival jitter detected; skipping strict FIFO check")
	} else if !sort.Float64sAreSorted(starts) {
		t.Fatal("dispatches are not FIFO")
	}
}

func TestHTTPSprintingSpeedsProcessing(t *testing.T) {
	// A whole-execution sprint at speedup 2 halves processing time:
	// with timeout 0 and idle arrivals, depart-start ~= service/2.
	_, srv := startManager(t, Config{
		Policy:  msPolicy(0, 100000, 1000),
		Speedup: 2,
	})
	responses, err := RunCtx(context.Background(), GeneratorConfig{
		URL:          srv.URL,
		Interarrival: dist.Deterministic{Value: 0.120},
		Service:      dist.Deterministic{Value: 0.080},
		NumQueries:   10,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var procs []float64
	for _, r := range responses {
		if !r.Sprinted {
			t.Fatalf("query did not sprint under timeout 0: %+v", r)
		}
		procs = append(procs, r.Depart-r.Start)
	}
	med := stats.Median(procs)
	// 80 ms work at speedup 2 = 40 ms, plus timer/HTTP overhead.
	if med < 0.035 || med > 0.065 {
		t.Fatalf("median sprinted processing %v s, want ~0.040", med)
	}
}

func TestHTTPBudgetExhaustionLimitsSprints(t *testing.T) {
	// Budget worth ~3 fully sprinted queries and no refill: later
	// queries run at the sustained rate.
	_, srv := startManager(t, Config{
		Policy: sprint.Policy{
			Timeout:       0,
			BudgetSeconds: 0.120, // 3 x 40 ms sprinted
			RefillTime:    1e9,
			Speedup:       2,
		},
		Speedup: 2,
	})
	responses, err := RunCtx(context.Background(), GeneratorConfig{
		URL:          srv.URL,
		Interarrival: dist.Deterministic{Value: 0.100},
		Service:      dist.Deterministic{Value: 0.080},
		NumQueries:   12,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sprinted := 0
	for _, r := range responses {
		if r.Sprinted {
			sprinted++
		}
	}
	if sprinted == 0 || sprinted >= len(responses) {
		t.Fatalf("sprinted %d/%d; a tight budget should allow some but not all", sprinted, len(responses))
	}
	stats, err := FetchStats(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 12 {
		t.Fatalf("stats report %d completed", stats.Completed)
	}
	if stats.SprintSeconds > 0.130 {
		t.Fatalf("consumed %v sprint-seconds of a 0.120 budget", stats.SprintSeconds)
	}
}

func TestHTTPValidation(t *testing.T) {
	if _, err := New(Config{Speedup: 0.5}); err == nil {
		t.Fatal("speedup < 1 accepted")
	}
	if _, err := RunCtx(context.Background(), GeneratorConfig{}); err == nil {
		t.Fatal("empty generator config accepted")
	}
	_, srv := startManager(t, Config{Policy: msPolicy(10, 1000, 1000), Speedup: 2})
	if _, err := RunCtx(context.Background(), GeneratorConfig{
		URL:          srv.URL,
		Interarrival: dist.Deterministic{Value: 0.01},
		Service:      dist.Deterministic{Value: 0.01},
		NumQueries:   0,
	}); err == nil {
		t.Fatal("zero queries accepted")
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, srv := startManager(t, Config{Policy: msPolicy(10, 1000, 1000), Speedup: 2})
	resp, err := srv.Client().Get(srv.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET /query -> %d, want 405", resp.StatusCode)
	}
	resp, err = srv.Client().Post(srv.URL+"/query", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("empty POST -> %d, want 400", resp.StatusCode)
	}
}
