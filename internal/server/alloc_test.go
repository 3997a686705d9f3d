package server

import (
	"context"
	"testing"
)

// TestTenantDecideZeroAllocs gates the serving hot path: a steady-state
// decision (cached controller decision, one turn, bounded ledger)
// must not allocate. This is what keeps tens of thousands of
// decisions per second GC-quiet.
func TestTenantDecideZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	s := newTestServer(t, Options{Tenants: testTenants("a")})
	tn, _ := s.lookup("a")
	ctx := context.Background()
	const rate = 0.6
	// Warm: first decision anneals, later ones ride the cached path.
	for i := 0; i < 3; i++ {
		if _, _, err := tn.Decide(ctx, rate); err != nil {
			t.Fatalf("warmup decide: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := tn.Decide(ctx, rate); err != nil {
			t.Fatalf("decide: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Decide allocates %.1f objects/op, want 0", allocs)
	}
}

// TestTenantObserveZeroAllocs gates the feedback path the same way.
func TestTenantObserveZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	s := newTestServer(t, Options{Tenants: testTenants("a")})
	tn, _ := s.lookup("a")
	ctx := context.Background()
	const rate = 0.6
	to, _, err := tn.Decide(ctx, rate)
	if err != nil {
		t.Fatalf("decide: %v", err)
	}
	obsRT := 1.0 + to/100
	for i := 0; i < 3; i++ {
		if err := tn.ObserveRT(ctx, rate, obsRT); err != nil {
			t.Fatalf("warmup observe: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := tn.ObserveRT(ctx, rate, obsRT); err != nil {
			t.Fatalf("observe: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ObserveRT allocates %.1f objects/op, want 0", allocs)
	}
}

// TestTenantDecideZeroAllocsTiered is the same gate with a tier
// estimator wired in (TierSpec): the decide path additionally stamps
// estimator-tier provenance into each DecisionRecord, and the retune's
// model queries ride the analytic tier — none of which may cost the
// steady state an allocation.
func TestTenantDecideZeroAllocsTiered(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	cfg := testTenants("a")
	cfg[0].TierSpec = "bound=0.1"
	s := newTestServer(t, Options{Tenants: cfg})
	tn, _ := s.lookup("a")
	ctx := context.Background()
	const rate = 0.6
	for i := 0; i < 3; i++ {
		if _, _, err := tn.Decide(ctx, rate); err != nil {
			t.Fatalf("warmup decide: %v", err)
		}
	}
	// The warmup retune must actually have exercised the ladder, with
	// the cheap analytic tier carrying the annealing search's queries.
	st := tn.tiers.Stats()
	if st.Answers == 0 || st.Analytic == 0 {
		t.Fatalf("tier estimator answers=%d analytic=%d: the decide path never queried the ladder", st.Answers, st.Analytic)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := tn.Decide(ctx, rate); err != nil {
			t.Fatalf("decide: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state tiered Decide allocates %.1f objects/op, want 0", allocs)
	}
}
