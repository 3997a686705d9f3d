package trace

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdsprint/internal/obs"
)

// These tests pin the sink error paths: unusable paths, marshal failures,
// sticky write errors. The hot-path contract is that a failed sink goes
// quiet (Event/line become no-ops) and the first error surfaces at
// Flush/Close, never mid-run.

// blockedPath returns a path whose parent is a regular file, so both
// MkdirAll and Create must fail under it.
func blockedPath(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	file := filepath.Join(dir, "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(file, "nested", "out.json")
}

func TestSaveSinksRejectUnusablePaths(t *testing.T) {
	p := blockedPath(t)
	if err := SaveEvents(p, []obs.QueryEvent{{Type: "arrival"}}); err == nil {
		t.Error("SaveEvents accepted a path under a regular file")
	}
	if err := SaveChromeTrace(p, nil); err == nil {
		t.Error("SaveChromeTrace accepted a path under a regular file")
	}
	if err := SaveDecisions(p, nil); err == nil {
		t.Error("SaveDecisions accepted a path under a regular file")
	}
	// A directory as the target file fails at Create rather than MkdirAll.
	if _, err := CreateEventLog(t.TempDir()); err == nil {
		t.Error("CreateEventLog accepted an existing directory as the file")
	}
}

func TestLoadersRejectMissingFiles(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope.jsonl")
	if _, err := LoadEvents(missing); err == nil {
		t.Error("LoadEvents read a missing file")
	}
	if _, err := LoadChromeTraceFile(missing); err == nil {
		t.Error("LoadChromeTraceFile read a missing file")
	}
	if _, err := LoadDecisionsFile(missing); err == nil {
		t.Error("LoadDecisionsFile read a missing file")
	}
}

// failWriter errors on every write, standing in for a full disk.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestEventWriterStickyError(t *testing.T) {
	w := NewEventWriter(failWriter{})
	w.Event(obs.QueryEvent{Type: "arrival", Time: 1})
	// The event fits bufio's buffer, so the failure lands at Flush.
	if err := w.Flush(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Flush error %v, want the writer's", err)
	}
	// The error is sticky: further events no-op, further flushes re-report.
	w.Event(obs.QueryEvent{Type: "departure", Time: 2})
	w.line(obs.SpanData{ID: 1})
	if err := w.Flush(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("second Flush error %v, want the sticky first error", err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close swallowed the sticky error")
	}
}

func TestEventWriterMarshalFailurePoisons(t *testing.T) {
	// NaN is not representable in JSON, so Marshal fails before any write.
	w := NewEventWriter(&strings.Builder{})
	w.Event(obs.QueryEvent{Type: "arrival", Value: math.NaN()})
	if err := w.Flush(); err == nil {
		t.Fatal("NaN event did not poison the writer")
	}
	w2 := NewEventWriter(&strings.Builder{})
	w2.line(map[string]float64{"nan": math.NaN()})
	if err := w2.Close(); err == nil {
		t.Fatal("NaN line did not poison the writer")
	}
}
