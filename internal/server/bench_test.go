package server

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"
)

// BenchmarkServeDecideDirect measures the in-process serving hot path:
// admission, taking and giving back the tenant's turn, cached
// controller decision, bounded ledger append. This is the decisions/sec ceiling
// before HTTP costs.
func BenchmarkServeDecideDirect(b *testing.B) {
	s := benchServer(b)
	tn, _ := s.lookup("a")
	ctx := context.Background()
	if _, _, err := tn.Decide(ctx, 0.6); err != nil {
		b.Fatalf("warmup: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tn.Decide(ctx, 0.6); err != nil {
			b.Fatalf("decide: %v", err)
		}
	}
}

// BenchmarkServeObserveDirect measures the feedback path the same way.
func BenchmarkServeObserveDirect(b *testing.B) {
	s := benchServer(b)
	tn, _ := s.lookup("a")
	ctx := context.Background()
	to, _, err := tn.Decide(ctx, 0.6)
	if err != nil {
		b.Fatalf("warmup: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tn.ObserveRT(ctx, 0.6, 1+to/100); err != nil {
			b.Fatalf("observe: %v", err)
		}
	}
}

// BenchmarkServeDecideHTTP measures a full client round trip through
// the HTTP surface with no retries: JSON in, admission, tenant turn,
// JSON out.
func BenchmarkServeDecideHTTP(b *testing.B) {
	s := benchServer(b)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL, MaxRetries: -1, AttemptTimeout: 5 * time.Second}
	ctx := context.Background()
	if _, err := c.Decide(ctx, "a", 0.6); err != nil {
		b.Fatalf("warmup: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decide(ctx, "a", 0.6); err != nil {
			b.Fatalf("decide: %v", err)
		}
	}
}

// BenchmarkServeShedHTTP measures rejection latency: how fast the
// daemon turns away work it cannot take. Shedding must stay cheap —
// a slow 503 is itself an overload amplifier.
func BenchmarkServeShedHTTP(b *testing.B) {
	s := benchServer(b)
	// Exhaust the global in-flight valve so every request sheds at the
	// front door without touching a tenant.
	for i := 0; i < cap(s.sem); i++ {
		s.sem <- struct{}{}
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL, MaxRetries: -1, AttemptTimeout: 5 * time.Second}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := c.Decide(ctx, "a", 0.6)
		if err == nil {
			b.Fatal("saturated server accepted a request")
		}
	}
}

func benchServer(b *testing.B) *Server {
	b.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	b.Cleanup(cancel)
	s, err := New(ctx, Options{Tenants: testTenants("a"), MaxInFlight: 16})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	return s
}
