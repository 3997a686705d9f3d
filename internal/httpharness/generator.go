package httpharness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"mdsprint/internal/dist"
	"mdsprint/internal/obs"
)

// GeneratorConfig drives a query generator replaying a workload against a
// queue manager's URL (Figure 3's front end).
type GeneratorConfig struct {
	// URL is the manager's base URL (the /query endpoint is appended).
	URL string
	// Interarrival and Service are the workload's distributions, in
	// wall-clock seconds (millisecond-scale values keep tests fast).
	Interarrival dist.Dist
	Service      dist.Dist
	// NumQueries to send.
	NumQueries int
	// Seed drives sampling (and each query's retry-backoff jitter).
	Seed uint64
	// Client overrides the HTTP client (default http.DefaultClient).
	Client *http.Client
	// MaxInFlight bounds concurrently outstanding requests (default
	// 4*GOMAXPROCS). Arrival pacing is unaffected — the bound only
	// limits how many launched queries may be on the wire at once, so a
	// stalled server cannot make the generator spawn unbounded work.
	MaxInFlight int
	// RequestTimeout bounds each individual HTTP attempt (default 30 s).
	RequestTimeout time.Duration
	// MaxRetries is how many times a failed attempt (transport error or
	// 5xx) is retried with jittered exponential backoff before the
	// query is reported failed. 4xx responses are never retried: the
	// request itself is wrong and a retry cannot fix it. Default 0 —
	// replays are faithful unless resilience is asked for.
	MaxRetries int
	// RetryBackoff is the first retry's base delay, doubled per attempt
	// and jittered +-50% (default 20 ms).
	RetryBackoff time.Duration
	// Metrics receives generator resilience counters; nil records into
	// obs.Default().
	Metrics *obs.Registry
}

func (cfg GeneratorConfig) withDefaults() GeneratorConfig {
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 20 * time.Millisecond
	}
	return cfg
}

// generatorMetrics resolves the generator's resilience counters.
type generatorMetrics struct {
	retries  *obs.Counter
	failures *obs.Counter
	inflight *obs.Gauge
}

func (cfg GeneratorConfig) metrics() generatorMetrics {
	reg := obs.Or(cfg.Metrics)
	return generatorMetrics{
		retries:  reg.Counter("mdsprint_harness_retries_total", "HTTP query attempts retried after a transport error or 5xx"),
		failures: reg.Counter("mdsprint_harness_failures_total", "HTTP queries failed after exhausting their retry budget"),
		inflight: reg.Gauge("mdsprint_harness_inflight", "HTTP queries currently on the wire"),
	}
}

// RunCtx replays the workload: it sends queries at the sampled arrival
// times (each on its own goroutine, like independent clients) and
// collects every response. It returns responses in arrival order.
//
// Once ctx is done, unsent queries are abandoned and in-flight requests
// are released by their per-attempt timeouts. The first error (lowest
// query index) is returned, so a failing replay reports
// deterministically.
func RunCtx(ctx context.Context, cfg GeneratorConfig) ([]QueryResponse, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.URL == "" || cfg.Interarrival == nil || cfg.Service == nil {
		return nil, fmt.Errorf("httpharness: generator needs URL and distributions")
	}
	if cfg.NumQueries <= 0 {
		return nil, fmt.Errorf("httpharness: NumQueries must be positive")
	}
	cfg = cfg.withDefaults()
	m := cfg.metrics()
	rng := dist.NewRNG(cfg.Seed)
	type planned struct {
		at      time.Duration
		service float64
		jitter  uint64 // per-query backoff-jitter seed, fixed at plan time
	}
	plan := make([]planned, cfg.NumQueries)
	at := time.Duration(0)
	for i := range plan {
		at += secondsToDuration(cfg.Interarrival.Sample(rng))
		plan[i] = planned{at: at, service: cfg.Service.Sample(rng), jitter: rng.Uint64()}
	}

	responses := make([]QueryResponse, cfg.NumQueries)
	errs := make([]error, cfg.NumQueries)
	sem := make(chan struct{}, cfg.MaxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for i, p := range plan {
		wg.Add(1)
		go func(i int, p planned) {
			defer wg.Done()
			if !sleepCtx(ctx, time.Until(start.Add(p.at))) {
				errs[i] = ctx.Err()
				return
			}
			// Acquire the in-flight slot after the scheduled send time:
			// the semaphore bounds outstanding work without reshaping
			// the arrival process (a query held here is "queued at the
			// client", exactly like a saturated NIC).
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				errs[i] = ctx.Err()
				return
			}
			defer func() { <-sem }()
			m.inflight.Add(1)
			defer m.inflight.Add(-1)
			responses[i], errs[i] = sendQuery(ctx, cfg, m, i, p.service, p.jitter)
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("httpharness: query %d: %w", i, err)
		}
	}
	return responses, nil
}

// sendQuery performs one query through the shared RetryPlan: per-attempt
// timeouts, bounded jittered retries on transport errors and 5xx.
func sendQuery(ctx context.Context, cfg GeneratorConfig, m generatorMetrics, i int, service float64, jitterSeed uint64) (QueryResponse, error) {
	body, err := json.Marshal(QueryRequest{ServiceSeconds: service})
	if err != nil {
		return QueryResponse{}, err
	}
	plan := RetryPlan{
		MaxRetries: cfg.MaxRetries,
		Backoff:    cfg.RetryBackoff,
		Seed:       jitterSeed,
		OnRetry:    func(int) { m.retries.Inc() },
	}
	var resp QueryResponse
	err = plan.Do(ctx, func(int) Outcome {
		r, retryable, aerr := attemptQuery(ctx, cfg, i, body)
		if aerr == nil {
			resp = r
		}
		return Outcome{Err: aerr, Retryable: retryable}
	})
	if err != nil {
		// A ctx expiring mid-backoff is the caller abandoning the query,
		// not the query failing — only genuine exhaustion counts.
		if err != ctx.Err() {
			m.failures.Inc()
		}
		return QueryResponse{}, err
	}
	return resp, nil
}

// attemptQuery is a single HTTP attempt. retryable reports whether a
// failure is worth another attempt (transport errors and 5xx yes, 4xx
// and malformed bodies no).
func attemptQuery(ctx context.Context, cfg GeneratorConfig, i int, body []byte) (qr QueryResponse, retryable bool, err error) {
	actx, cancel := context.WithTimeout(ctx, cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, cfg.URL+"/query", bytes.NewReader(body))
	if err != nil {
		return QueryResponse{}, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return QueryResponse{}, true, err
	}
	defer func() {
		// Drain so the connection is reusable; a failed drain only
		// costs the keep-alive, never the result.
		//lint:ignore errdrop best-effort drain; losing the keep-alive is the only consequence
		_, _ = io.Copy(io.Discard, resp.Body)
		if cerr := resp.Body.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if resp.StatusCode != http.StatusOK {
		return QueryResponse{}, resp.StatusCode >= 500,
			fmt.Errorf("query %d: HTTP %d", i, resp.StatusCode)
	}
	if derr := json.NewDecoder(resp.Body).Decode(&qr); derr != nil {
		return QueryResponse{}, false, derr
	}
	return qr, false, nil
}

// sleepCtx sleeps for d (no-op when non-positive) unless ctx is done
// first; it reports whether the full sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// FetchStats reads the manager's /stats endpoint.
func FetchStats(url string, client *http.Client) (Stats, error) {
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Get(url + "/stats")
	if err != nil {
		return Stats{}, err
	}
	defer resp.Body.Close()
	var s Stats
	return s, json.NewDecoder(resp.Body).Decode(&s)
}
