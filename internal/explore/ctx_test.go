package explore

import (
	"context"
	"errors"
	"testing"
)

func TestMinimizeBatchCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	quad := batchOf(func(p []float64) float64 { return p[0] * p[0] })
	space := Space{Lo: []float64{-5}, Hi: []float64{5}, NeighborRange: []float64{1}}
	_, err := MinimizeBatchCtx(ctx, quad, space, BatchOptions{Options: Options{MaxIter: 50, Seed: 3}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMinimizeBatchCtxCancelMidSearch(t *testing.T) {
	// Cancel from inside the objective: the annealer must stop at the
	// next cohort boundary and report the context's error, not return a
	// half-baked result.
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	obj := func(pts [][]float64) ([]float64, error) {
		calls++
		if calls == 3 {
			cancel()
		}
		out := make([]float64, len(pts))
		for i, p := range pts {
			out[i] = p[0] * p[0]
		}
		return out, nil
	}
	space := Space{Lo: []float64{-5}, Hi: []float64{5}, NeighborRange: []float64{1}}
	_, err := MinimizeBatchCtx(ctx, obj, space, BatchOptions{Cohort: 1, Options: Options{MaxIter: 500, Seed: 3}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls >= 500 {
		t.Fatalf("search ran all %d iterations despite cancellation", calls)
	}
}

func TestMinimizeBatchCtxBackgroundMatchesLegacy(t *testing.T) {
	// A live, never-canceled context walks the same search as Background.
	quad := batchOf(func(p []float64) float64 { return (p[0] - 2) * (p[0] - 2) })
	space := Space{Lo: []float64{-5}, Hi: []float64{5}, NeighborRange: []float64{1}}
	opts := BatchOptions{Cohort: 4, Options: Options{MaxIter: 200, Seed: 17}}
	live, stop := context.WithCancel(context.Background())
	defer stop()
	a, err := MinimizeBatchCtx(live, quad, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MinimizeBatchCtx(context.Background(), quad, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTrace(a.Trace, b.Trace) {
		t.Fatal("ctx variant perturbed the annealing trajectory")
	}
}

func TestMinimizeTimeoutBatchCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	obj := func(tos []float64) ([]float64, error) {
		out := make([]float64, len(tos))
		for i, to := range tos {
			out[i] = (to - 30) * (to - 30)
		}
		return out, nil
	}
	_, err := MinimizeTimeoutBatchCtx(ctx, obj, 0, 120, BatchOptions{Options: Options{MaxIter: 50, Seed: 5}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
