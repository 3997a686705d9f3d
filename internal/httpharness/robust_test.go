package httpharness

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mdsprint/internal/dist"
	"mdsprint/internal/fault"
	"mdsprint/internal/obs"
)

func TestRunRetriesInjectedFaults(t *testing.T) {
	// A fault-injecting transport drops and 503s a third of requests;
	// with a retry budget the replay must still answer every query,
	// in order, and count its retries.
	_, srv := startManager(t, Config{
		Policy:  msPolicy(30, 100000, 1000),
		Speedup: 2,
	})
	reg := obs.NewRegistry()
	client := &http.Client{Transport: fault.NewRoundTripper(http.DefaultTransport, fault.HTTPFaultConfig{
		Seed: 41, DropProb: 0.2, ErrorProb: 0.15, Metrics: reg,
	})}
	responses, err := RunCtx(context.Background(), GeneratorConfig{
		URL:          srv.URL,
		Interarrival: dist.Deterministic{Value: 0.005},
		Service:      dist.Deterministic{Value: 0.002},
		NumQueries:   40,
		Seed:         9,
		Client:       client,
		MaxRetries:   6,
		RetryBackoff: time.Millisecond,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(responses) != 40 {
		t.Fatalf("got %d responses, want 40", len(responses))
	}
	for i, r := range responses {
		if r.Depart < r.Start || r.Start < r.Arrival-1e-9 {
			t.Fatalf("response %d has inconsistent timestamps: %+v", i, r)
		}
	}
	if got := reg.Counter("mdsprint_harness_retries_total", "").Value(); got < 1 {
		t.Fatalf("retries counter %v, want >= 1 under 35%% fault rate", got)
	}
	if got := reg.Counter("mdsprint_harness_failures_total", "").Value(); got > 0 {
		t.Fatalf("failures counter %v, want 0 (retry budget covers the fault rate)", got)
	}
}

func TestRunDoesNotRetry4xx(t *testing.T) {
	var hits int
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		mu.Unlock()
		http.Error(w, "bad request", http.StatusBadRequest)
	}))
	defer srv.Close()
	_, err := RunCtx(context.Background(), GeneratorConfig{
		URL:          srv.URL,
		Interarrival: dist.Deterministic{Value: 0.001},
		Service:      dist.Deterministic{Value: 0.001},
		NumQueries:   1,
		Seed:         1,
		MaxRetries:   5,
		RetryBackoff: time.Millisecond,
		Metrics:      obs.NewRegistry(),
	})
	if err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("err = %v, want the HTTP 400", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if hits != 1 {
		t.Fatalf("server saw %d attempts for a 400, want 1 (4xx is not retryable)", hits)
	}
}

func TestRunBoundsInFlightRequests(t *testing.T) {
	// A deliberately slow server with every client launched at once:
	// the semaphore must cap concurrently outstanding requests.
	var mu sync.Mutex
	inflight, peak := 0, 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		inflight++
		if inflight > peak {
			peak = inflight
		}
		mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		mu.Lock()
		inflight--
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		if _, err := w.Write([]byte(`{}`)); err != nil {
			t.Error(err)
		}
	}))
	defer srv.Close()
	const bound = 3
	_, err := RunCtx(context.Background(), GeneratorConfig{
		URL:          srv.URL,
		Interarrival: dist.Deterministic{Value: 0}, // all queries due immediately
		Service:      dist.Deterministic{Value: 0.001},
		NumQueries:   12,
		Seed:         2,
		MaxInFlight:  bound,
		Metrics:      obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if peak > bound {
		t.Fatalf("peak in-flight %d exceeded the bound %d", peak, bound)
	}
}

func TestRunCtxCancellation(t *testing.T) {
	_, srv := startManager(t, Config{
		Policy:  msPolicy(30, 100000, 1000),
		Speedup: 2,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCtx(ctx, GeneratorConfig{
		URL:          srv.URL,
		Interarrival: dist.Deterministic{Value: 0.050},
		Service:      dist.Deterministic{Value: 0.010},
		NumQueries:   5,
		Seed:         3,
		Metrics:      obs.NewRegistry(),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunRequestTimeoutBounds(t *testing.T) {
	// A server that never answers within the attempt timeout: the query
	// must fail with a deadline error instead of hanging forever.
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer func() {
		close(release)
		srv.Close()
	}()
	start := time.Now()
	_, err := RunCtx(context.Background(), GeneratorConfig{
		URL:            srv.URL,
		Interarrival:   dist.Deterministic{Value: 0.001},
		Service:        dist.Deterministic{Value: 0.001},
		NumQueries:     1,
		Seed:           4,
		RequestTimeout: 50 * time.Millisecond,
		Metrics:        obs.NewRegistry(),
	})
	if err == nil {
		t.Fatal("expected a deadline error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("request hung for %v despite a 50 ms attempt timeout", elapsed)
	}
}
