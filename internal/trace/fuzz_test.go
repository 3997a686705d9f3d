package trace

import (
	"os"
	"path/filepath"
	"testing"

	"mdsprint/internal/obs"
)

// FuzzLoadEvents feeds arbitrary bytes through the JSONL event reader:
// it must never panic, and any log it accepts must round-trip through
// SaveEvents/LoadEvents unchanged.
func FuzzLoadEvents(f *testing.F) {
	valid := []obs.QueryEvent{
		{Type: obs.EvArrival, Time: 0.5, Query: 0, Value: 1.25},
		{Type: obs.EvServiceStart, Time: 0.5, Query: 0, Class: "MixI"},
		{Type: obs.EvSprintStart, Time: 1.0, Query: 0, Value: 0.4},
		{Type: obs.EvDeparture, Time: 2.5, Query: 0, Value: 2.0},
	}
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.jsonl")
	if err := SaveEvents(seedPath, valid); err != nil {
		f.Fatal(err)
	}
	seedBytes, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seedBytes)
	f.Add([]byte(""))
	f.Add([]byte("{}\n{}\n"))
	f.Add([]byte(`{"type":"arrival","t":1e999}`))
	f.Add([]byte(`{"type":"arrival"`))
	f.Add([]byte("null\n"))
	f.Add([]byte("[1,2,3]\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "in.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip() // tmpfs hiccup, nothing to test
		}
		events, err := LoadEvents(path) // must never panic
		if err != nil {
			return
		}
		// Accepted input must round-trip exactly.
		out := filepath.Join(t.TempDir(), "out.jsonl")
		if err := SaveEvents(out, events); err != nil {
			t.Fatalf("SaveEvents on accepted input: %v", err)
		}
		again, err := LoadEvents(out)
		if err != nil {
			t.Fatalf("LoadEvents round-trip: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round-trip length %d != %d", len(again), len(events))
		}
		for i := range events {
			if again[i] != events[i] {
				t.Fatalf("round-trip event %d: %+v != %+v", i, again[i], events[i])
			}
		}
	})
}

// FuzzLoadDataset feeds arbitrary bytes to LoadDataset: it must never
// panic, and any dataset it accepts must be one the queue simulator can
// replay, with positive rates and positive service samples.
func FuzzLoadDataset(f *testing.F) {
	seedPath := filepath.Join(f.TempDir(), "seed.json")
	if err := SaveDataset(seedPath, sampleDataset()); err != nil {
		f.Fatal(err)
	}
	seedBytes, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seedBytes)
	f.Add([]byte(`{"service_rate":0.01,"marginal_rate":0.02,"service_samples":[-70,71,69]}`))
	f.Add([]byte(`{"service_rate":0.01,"marginal_rate":0.02,"service_samples":[0,0,0]}`))
	f.Add([]byte(`{"service_rate":0.01,"marginal_rate":-0.03,"service_samples":[70]}`))
	f.Add([]byte(`{"service_rate":1e999,"marginal_rate":1,"service_samples":[1]}`))
	f.Add([]byte("null"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ds.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip() // tmpfs hiccup, nothing to test
		}
		ds, err := LoadDataset(path) // must never panic
		if err != nil {
			return
		}
		if !(ds.ServiceRate > 0) || !(ds.MarginalRate > 0) {
			t.Fatalf("accepted rates mu=%v mum=%v", ds.ServiceRate, ds.MarginalRate)
		}
		for i, x := range ds.ServiceSamples {
			if !(x > 0) {
				t.Fatalf("accepted service sample %d = %v", i, x)
			}
		}
	})
}
