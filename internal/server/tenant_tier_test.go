package server

import (
	"context"
	"testing"

	"mdsprint/internal/tier"
)

// TestTenantTierSpecWiring covers the TierSpec plumbing end to end: a
// bad spec fails tenant construction; a good one builds a per-tenant
// estimator whose answers surface in the tenant registry's
// mdsprint_tier_* metrics and whose per-decision provenance lands in
// the ledger records.
func TestTenantTierSpecWiring(t *testing.T) {
	if _, err := newTenant(context.Background(), TenantConfig{Name: "bad", TierSpec: "bound=nope"}); err == nil {
		t.Fatal("bad TierSpec accepted")
	}

	cfg := testTenants("a")
	cfg[0].TierSpec = "bound=0.1"
	s := newTestServer(t, Options{Tenants: cfg})
	tn, _ := s.lookup("a")
	ctx := context.Background()
	if _, _, err := tn.Decide(ctx, 0.6); err != nil {
		t.Fatal(err)
	}
	if v, ok := tn.reg.Value("mdsprint_tier_answers_total"); !ok || v == 0 {
		t.Fatalf("mdsprint_tier_answers_total = %v, %v: estimator metrics not in the tenant registry", v, ok)
	}
	recs := tn.ledger.Records()
	if len(recs) == 0 {
		t.Fatal("no decision records")
	}
	r := recs[len(recs)-1]
	if r.EstTier != tier.TierAnalytic.String() || r.EstQueries == 0 {
		t.Fatalf("record est_tier=%q est_queries=%d: want analytic-dominated provenance", r.EstTier, r.EstQueries)
	}

	// An untiered tenant's records carry no estimator provenance.
	plain := newTestServer(t, Options{Tenants: testTenants("p")})
	pt, _ := plain.lookup("p")
	if _, _, err := pt.Decide(ctx, 0.6); err != nil {
		t.Fatal(err)
	}
	if rs := pt.ledger.Records(); rs[len(rs)-1].EstTier != "" {
		t.Fatalf("untiered tenant stamped est_tier=%q", rs[len(rs)-1].EstTier)
	}
}
