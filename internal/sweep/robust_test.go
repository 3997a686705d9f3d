package sweep

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"mdsprint/internal/obs"
)

// TestPoolSurvivesInjectedPanics is the ISSUE's no-panic-kills-the-pool
// guarantee: a hook panicking on some tasks must surface per-task
// errors, leave every other task's result intact, and leave the engine
// fully usable for the next batch.
func TestPoolSurvivesInjectedPanics(t *testing.T) {
	tasks := testGrid()
	isVictim := func(i int) bool { return i == 3 || i == 11 || i == 20 }
	var disarmed atomic.Bool
	e := New(Options{
		Workers: 4, CacheSize: -1, Metrics: obs.NewRegistry(),
		TaskHook: func(i int, _ Task) error {
			if !disarmed.Load() && isVictim(i) {
				panic("chaos says no")
			}
			return nil
		},
	})
	b := e.EvaluateAsyncCtx(context.Background(), tasks)
	preds, err := b.Wait()
	if err == nil {
		t.Fatal("expected the batch to report the panicked tasks")
	}
	// Deterministic reporting: the lowest-indexed failure wins.
	if !strings.Contains(err.Error(), "task 3") || !strings.Contains(err.Error(), "recovered panic") {
		t.Fatalf("batch error %q, want the recovered panic of task 3", err)
	}
	want, werr := New(Options{Workers: 1, CacheSize: -1, Metrics: obs.NewRegistry()}).EvaluateAllCtx(context.Background(), tasks)
	if werr != nil {
		t.Fatal(werr)
	}
	for i := range tasks {
		if isVictim(i) {
			continue
		}
		if bitsOf(preds[i]) != bitsOf(want[i]) {
			t.Fatalf("survivor task %d perturbed by its neighbours' panics", i)
		}
	}
	if got := e.Stats().RecoveredPanics; got != 3 {
		t.Fatalf("RecoveredPanics = %d, want 3", got)
	}
	// The pool must still work: same engine, clean batch.
	disarmed.Store(true)
	again, err := e.EvaluateAllCtx(context.Background(), tasks)
	if err != nil {
		t.Fatalf("engine unusable after recovered panics: %v", err)
	}
	for i := range tasks {
		if bitsOf(again[i]) != bitsOf(want[i]) {
			t.Fatalf("post-panic batch diverged at task %d", i)
		}
	}
}

func TestBatchReportsLowestIndexedHookError(t *testing.T) {
	tasks := testGrid()
	e := New(Options{
		Workers: 4, Metrics: obs.NewRegistry(),
		TaskHook: func(i int, _ Task) error {
			if i == 9 || i == 4 {
				return errors.New("injected")
			}
			return nil
		},
	})
	_, err := e.EvaluateAllCtx(context.Background(), tasks)
	if err == nil || !strings.Contains(err.Error(), "task 4") {
		t.Fatalf("batch error %v, want task 4 (the lowest failing index)", err)
	}
}

// TestHookFaultsAreNotMemoized: the hook runs outside the cache, so an
// injected failure must never poison the memoized result for its task.
func TestHookFaultsAreNotMemoized(t *testing.T) {
	tasks := testGrid()
	var failing atomic.Bool
	failing.Store(true)
	e := New(Options{
		Workers: 4, Metrics: obs.NewRegistry(),
		TaskHook: func(i int, _ Task) error {
			if failing.Load() {
				return errors.New("injected")
			}
			return nil
		},
	})
	if _, err := e.EvaluateAllCtx(context.Background(), tasks); err == nil {
		t.Fatal("setup: the failing batch must fail")
	}
	failing.Store(false)
	got, err := e.EvaluateAllCtx(context.Background(), tasks)
	if err != nil {
		t.Fatalf("cache poisoned by injected hook errors: %v", err)
	}
	want, werr := New(Options{Workers: 1, CacheSize: -1, Metrics: obs.NewRegistry()}).EvaluateAllCtx(context.Background(), tasks)
	if werr != nil {
		t.Fatal(werr)
	}
	for i := range tasks {
		if bitsOf(got[i]) != bitsOf(want[i]) {
			t.Fatalf("task %d served a faulted result", i)
		}
	}
}

func TestEvaluateAsyncCtxCancellation(t *testing.T) {
	tasks := testGrid()
	e := New(Options{Workers: 2, Metrics: obs.NewRegistry()})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before the batch starts: every task is abandoned
	_, err := e.EvaluateAllCtx(ctx, tasks)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error %v, want context.Canceled", err)
	}
	if got := e.Stats().Canceled; got != uint64(len(tasks)) {
		t.Fatalf("Canceled = %d, want %d", got, len(tasks))
	}
	// The engine survives cancellation.
	if _, err := e.EvaluateAllCtx(context.Background(), tasks[:4]); err != nil {
		t.Fatalf("engine unusable after a canceled batch: %v", err)
	}
	if _, err := e.MeanRTsCtx(ctx, tasks[:2]); !errors.Is(err, context.Canceled) {
		t.Fatalf("MeanRTsCtx error %v, want context.Canceled", err)
	}
}

func TestEvaluateAsyncCtxNilContext(t *testing.T) {
	tasks := testGrid()[:4]
	e := New(Options{Workers: 2, Metrics: obs.NewRegistry()})
	preds, err := e.EvaluateAsyncCtx(nil, tasks).Wait() //nolint:staticcheck // nil ctx tolerance is the contract under test
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != len(tasks) {
		t.Fatalf("got %d predictions, want %d", len(preds), len(tasks))
	}
}
