package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"mdsprint/internal/online"
	"mdsprint/internal/server"
)

// servePairs is how many decide-then-observe pairs each client sends per
// round: 2 clients x 250 pairs x 2 requests = 1000 requests per round.
const servePairs = 250

// Surface and controller settings shared by the tenants and the clients'
// observed RTs (the server.TenantConfig defaults).
const (
	surfaceMu    = 1.0
	surfaceGain  = 0.8
	surfaceSweet = 20.0
	maxTimeout   = 60.0
	// serveRate is both tenants' base arrival rate, as a fraction of
	// the service rate.
	serveRate = 0.6
)

// serveTenant is one tenant's closed-loop client and what it saw.
type serveTenant struct {
	name   string
	client *server.Client
	// rate is the base arrival rate; drift alternates ±25% around it.
	rate  float64
	drift bool

	served     int // successful decides, set-up included
	decideSec  []float64
	observeSec []float64
}

// rateAt is the client's arrival rate for its i-th decision.
func (t *serveTenant) rateAt(i int) float64 {
	if !t.drift {
		return t.rate
	}
	if i%2 == 0 {
		return t.rate * 1.25
	}
	return t.rate * 0.75
}

// serveEnv is an in-process sprintd behind a loopback listener, driven
// by one closed-loop client per tenant through server.Client.
type serveEnv struct {
	cancel  context.CancelFunc
	hs      *http.Server
	served  chan error
	base    string
	tenants []*serveTenant
	step    int

	start map[string]map[string]float64 // registries after set-up
	end   map[string]map[string]float64
	mu    sync.Mutex // guards the tenants' sample slices
	// The drift tenant's full tier runs the queue simulator, which
	// counts into obs.Default().
	sim counterDelta
}

// setupServe starts the daemon with its two tenants and makes each
// tenant's first decision. The server's context is its own: the run ends
// it through close.
func setupServe(seed uint64, tr *tracer) (env, error) {
	// The rates are fixed and the seed drives the tenants' controllers:
	// what a re-annealing decide costs depends strongly on the rate, so a
	// seeded rate would make the work differ twofold between runs.
	e := &serveEnv{tenants: []*serveTenant{
		// steady: one rate, so after the first search every decide is the
		// controller's cached answer.
		{name: "steady", rate: serveRate},
		// drift: ±25% moves past the retune threshold on every decide, so
		// each one re-anneals through the tier ladder.
		{name: "drift", rate: serveRate, drift: true},
	}}
	cfgs := []server.TenantConfig{
		{Name: "steady", MaxTimeout: maxTimeout, Seed: seed*2 + 1},
		{Name: "drift", MaxTimeout: maxTimeout, Seed: seed*2 + 2, TierSpec: "bound=0.1"},
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel
	srv, err := server.New(ctx, server.Options{Tenants: cfgs})
	if err != nil {
		cancel()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = tr.handler(h)
	}
	e.hs = &http.Server{Handler: h}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.base = "http://" + ln.Addr().String()
	for _, t := range e.tenants {
		// One connection per client: two clients, two connections.
		var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		if tr != nil {
			rt = transport{tr: tr, next: rt}
		}
		t.client = &server.Client{BaseURL: e.base, HTTP: &http.Client{Transport: rt}, MaxRetries: -1}
		if _, err := t.client.Decide(ctx, t.name, t.rateAt(0)); err != nil {
			_ = e.close() // the decide's error is the one to report
			return nil, fmt.Errorf("first decide for %s: %w", t.name, err)
		}
		t.served++
	}
	if e.start, err = e.scrape(ctx); err != nil {
		_ = e.close() // the scrape's error is the one to report
		return nil, err
	}
	return e, nil
}

func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	e.cancel()
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	for _, t := range e.tenants {
		if t.client != nil {
			t.client.HTTP.CloseIdleConnections()
		}
	}
	return err
}

// unit runs one round: both clients send servePairs decide/observe
// pairs, each waiting for its reply before the next request.
func (e *serveEnv) unit(ctx context.Context, tr *tracer, acc *acct) int {
	if e.step == 0 {
		e.sim.mark()
	}
	var wg sync.WaitGroup
	for _, t := range e.tenants {
		wg.Add(1)
		go func(t *serveTenant) {
			defer wg.Done()
			e.loop(ctx, tr, acc, t, e.step)
		}(t)
	}
	wg.Wait()
	e.step += servePairs
	return 2 * 2 * servePairs
}

func (e *serveEnv) loop(ctx context.Context, tr *tracer, acc *acct, t *serveTenant, step int) {
	decide := make([]float64, 0, servePairs)
	observe := make([]float64, 0, servePairs)
	served := 0
	for i := 0; i < servePairs; i++ {
		rate := t.rateAt(step + i + 1)
		dctx, sp := tr.start(ctx, "transport.decide")
		t0 := time.Now()
		res, err := t.client.Decide(dctx, t.name, rate)
		decide = append(decide, elapsed(t0))
		sp.End()
		if !acc.op("decide "+t.name, err) {
			continue
		}
		served++
		acc.check("serve timeout within [0, max_timeout]", res.Timeout >= 0 && res.Timeout <= maxTimeout,
			"%s timeout %v", t.name, res.Timeout)
		acc.check("serve tenant stays at hybrid", res.Level == int(online.LevelHybrid),
			"%s served at %s", t.name, res.Tier)
		rt := online.SurfaceRT(surfaceMu, surfaceGain, surfaceSweet, rate, res.Timeout)
		octx, sp := tr.start(ctx, "transport.observe")
		t0 = time.Now()
		err = t.client.Observe(octx, t.name, rate, rt)
		observe = append(observe, elapsed(t0))
		sp.End()
		acc.op("observe "+t.name, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	t.served += served
	if tr == nil {
		t.decideSec = append(t.decideSec, decide...)
		t.observeSec = append(t.observeSec, observe...)
	}
}

// finish checks the daemon's own account against the clients'.
func (e *serveEnv) finish(ctx context.Context, acc *acct) {
	e.sim.add()
	var err error
	e.end, err = e.scrape(ctx)
	if !acc.op("scrape /metrics", err) {
		return
	}
	for _, t := range e.tenants {
		got := e.end[t.name]["mdsprint_serve_decisions_total"]
		acc.check("serve decisions served equal mdsprint_serve_decisions_total", int(got) == t.served,
			"%s: clients saw %d, daemon counted %v", t.name, t.served, got)
	}
	sts, err := e.tenants[0].client.Tenants(ctx)
	if !acc.op("GET /v1/tenants", err) {
		return
	}
	for _, st := range sts {
		acc.check("serve tenant ends at hybrid", st.Level == int(online.LevelHybrid), "%s at %s", st.Name, st.Tier)
	}
}

// scrape reads the daemon registry (key "") and each tenant's registry
// through GET /metrics.
func (e *serveEnv) scrape(ctx context.Context) (map[string]map[string]float64, error) {
	out := make(map[string]map[string]float64)
	names := []string{""}
	for _, t := range e.tenants {
		names = append(names, t.name)
	}
	for _, name := range names {
		url := e.base + "/metrics"
		if name != "" {
			url += "?tenant=" + name
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		resp, err := e.tenants[0].client.HTTP.Do(req)
		if err != nil {
			return nil, err
		}
		m, err := parseProm(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
		}
		out[name] = m
	}
	return out, nil
}

// parseProm reads Prometheus text exposition into name -> value, with
// summary quantiles keyed as name{quantile="q"}.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is a registry counter's movement over the measured rounds.
func (e *serveEnv) delta(reg, name string) float64 {
	return e.end[reg][name] - e.start[reg][name]
}

func (e *serveEnv) layers(units, traced int, tr *tracer, out map[string]float64) {
	per := func(v float64) float64 { return v / float64(units) }
	out["online.decide_us"] = e.end["drift"]["mdsprint_decision_select_seconds{quantile=\"0.5\"}"] * 1e6
	out["online.retunes"] = per(e.delta("steady", "mdsprint_online_retunes_total") + e.delta("drift", "mdsprint_online_retunes_total"))
	out["online.demotions"] = per(e.delta("steady", "mdsprint_online_demotions_total") + e.delta("drift", "mdsprint_online_demotions_total"))
	out["sweep.tasks"] = per(e.delta("drift", "mdsprint_sweep_tasks_total"))
	out["sweep.evals"] = per(e.delta("drift", "mdsprint_sweep_evals_total"))
	hits, misses := e.delta("drift", "mdsprint_sweep_cache_hits_total"), e.delta("drift", "mdsprint_sweep_cache_misses_total")
	if hits+misses > 0 {
		out["sweep.hit_ratio"] = hits / (hits + misses)
	}
	events := e.sim.sum["mdsprint_sim_events_total"]
	out["queuesim.events"] = per(events)
	if events > 0 {
		out["queuesim.ns_per_event"] = e.sim.sum["sim_run_seconds"] * 1e9 / events
	}
	analytic, full := e.delta("drift", "mdsprint_tier_analytic_total"), e.delta("drift", "mdsprint_tier_full_total")
	out["tier.analytic"] = per(analytic)
	out["tier.full"] = per(full)
	if answers := e.delta("drift", "mdsprint_tier_answers_total"); answers > 0 {
		out["tier.cheap_ratio"] = (analytic + e.delta("drift", "mdsprint_tier_cache_total")) / answers
	}
	shed := e.delta("", "mdsprint_serve_shed_inflight_total") + e.delta("", "mdsprint_serve_shed_tenant_total")
	if admitted := e.delta("", "mdsprint_serve_requests_total") + e.delta("", "mdsprint_serve_shed_inflight_total"); admitted > 0 {
		out["server.shed_ratio"] = shed / admitted
	}
	if tr != nil {
		tr.mu.Lock()
		out["server.decide_p50_us"], _ = percentile(tr.handlerS["decide"], 0.5)
		out["server.decide_p99_us"], _ = percentile(tr.handlerS["decide"], 0.99)
		out["server.observe_p50_us"], _ = percentile(tr.handlerS["observe"], 0.5)
		out["server.observe_p99_us"], _ = percentile(tr.handlerS["observe"], 0.99)
		out["transport.self_us"] = median(tr.selfTran)
		tr.mu.Unlock()
		for _, k := range []string{"server.decide_p50_us", "server.decide_p99_us", "server.observe_p50_us", "server.observe_p99_us", "transport.self_us"} {
			out[k] *= 1e6
		}
	}
}

func (e *serveEnv) summary() []string {
	var out []string
	var decide, observe []float64
	for _, t := range e.tenants {
		out = append(out, fmt.Sprintf("result %-6s decide %s; observe %s", t.name,
			summarize(t.decideSec, 1e6, "us"), summarize(t.observeSec, 1e6, "us")))
		decide = append(decide, t.decideSec...)
		observe = append(observe, t.observeSec...)
	}
	return append(out,
		"result decide "+summarize(decide, 1e6, "us"),
		"result observe "+summarize(observe, 1e6, "us"))
}
