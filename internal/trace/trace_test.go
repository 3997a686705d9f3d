package trace

import (
	"path/filepath"
	"strings"
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/mech"
	"mdsprint/internal/obs"
	"mdsprint/internal/profiler"
	"mdsprint/internal/workload"
)

func sampleDataset() *profiler.Dataset {
	return &profiler.Dataset{
		MixName:        "Jacobi",
		MechName:       "DVFS",
		ServiceRate:    0.0141,
		MarginalRate:   0.0205,
		ServiceSamples: []float64{70.1, 71.5, 69.8},
		Observations: []profiler.Observation{
			{
				Cond: profiler.Condition{
					Utilization: 0.75, ArrivalKind: dist.KindExponential,
					Timeout: 60, RefillTime: 200, BudgetPct: 0.2,
				},
				ArrivalRate: 0.0106,
				MeanRT:      132.4,
				P95RT:       310.2,
				P99RT:       401.8,
			},
		},
		ProfilingSeconds: 25920,
	}
}

func TestDatasetRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "jacobi.json")
	ds := sampleDataset()
	if err := SaveDataset(path, ds); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.MixName != ds.MixName || got.ServiceRate != ds.ServiceRate {
		t.Fatalf("identity lost: %+v", got)
	}
	if len(got.Observations) != 1 || got.Observations[0].MeanRT != 132.4 {
		t.Fatalf("observations lost: %+v", got.Observations)
	}
	if got.Observations[0].Cond.ArrivalKind != dist.KindExponential {
		t.Fatalf("arrival kind lost: %q", got.Observations[0].Cond.ArrivalKind)
	}
	if len(got.ServiceSamples) != 3 {
		t.Fatalf("service samples lost: %v", got.ServiceSamples)
	}
}

func TestLoadDatasetRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := writeJSON(path, map[string]string{"hello": "world"}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDataset(path); err == nil {
		t.Fatal("garbage dataset accepted")
	}
	if _, err := LoadDataset(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestWriteJSONErrors(t *testing.T) {
	// Unserialisable value.
	if err := writeJSON(filepath.Join(t.TempDir(), "x.json"), func() {}); err == nil {
		t.Fatal("function value marshalled")
	}
	// Unwritable directory (a file where a directory is needed).
	dir := t.TempDir()
	blocker := filepath.Join(dir, "file")
	if err := writeJSON(blocker, 1); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(filepath.Join(blocker, "sub", "x.json"), 1); err == nil {
		t.Fatal("mkdir under a file succeeded")
	}
}

// TestLoadDatasetRejectsNonPositiveValues covers datasets that parse but
// that the queue simulator cannot replay: a negative service sample used
// to load and then panic mid-simulation, all-zero samples predicted a
// mean response time of zero, and a negative marginal rate failed only
// later, inside the simulator.
func TestLoadDatasetRejectsNonPositiveValues(t *testing.T) {
	cases := []struct {
		name string
		edit func(*profiler.Dataset)
		want string
	}{
		{"negative-sample", func(ds *profiler.Dataset) { ds.ServiceSamples = []float64{-70, 71.5, 69.8} }, "service sample 0"},
		{"zero-samples", func(ds *profiler.Dataset) { ds.ServiceSamples = []float64{0, 0, 0} }, "service sample 0"},
		{"negative-marginal-rate", func(ds *profiler.Dataset) { ds.MarginalRate = -0.03 }, "marginal rate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := sampleDataset()
			tc.edit(ds)
			path := filepath.Join(t.TempDir(), "ds.json")
			if err := SaveDataset(path, ds); err != nil {
				t.Fatal(err)
			}
			_, err := LoadDataset(path)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadDataset error %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// TestLoadDatasetAcceptsProfiledDatasets checks that the validation does
// not reject what the profiler writes: every catalog workload and mix
// under every mechanism.
func TestLoadDatasetAcceptsProfiledDatasets(t *testing.T) {
	mixes := []workload.Mix{workload.MixI(), workload.MixII(), workload.MixJacobiMem()}
	for _, c := range workload.Catalog() {
		mixes = append(mixes, workload.SingleClass(c))
	}
	dir := t.TempDir()
	for _, mix := range mixes {
		for _, m := range mech.All() {
			p := profiler.Profiler{Mix: mix, Mechanism: m, QueriesPerRun: 200, Seed: 3, Workers: 1, Metrics: obs.NewRegistry()}
			path := filepath.Join(dir, mix.Name+"-"+m.Name()+".json")
			if err := SaveDataset(path, p.Profile(nil)); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadDataset(path); err != nil {
				t.Errorf("%s/%s: %v", mix.Name, m.Name(), err)
			}
		}
	}
}
