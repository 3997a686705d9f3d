package testbed

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"mdsprint/internal/mech"
	"mdsprint/internal/sprint"
	"mdsprint/internal/workload"
)

// goldenFingerprint pins every measured query's timestamps and sprint
// bookkeeping across the goldenConfigs grid, bit for bit. Any change to
// the event order, the sprint curves, the toggle cost, the load coupling
// or the budget accounting moves it. Recompute it only for a deliberate
// change to the testbed's semantics, and say why in CHANGES.md.
const goldenFingerprint = "652a07226910890f"

// goldenConfigs returns the fingerprinted runs: every catalog class under
// three mechanisms and four policies (no sprint; immediate sprints with
// the commanded speedup clipped; a late timeout on a tight budget; an
// early timeout on an unlimited budget), each at one and three slots,
// plus one mixed-workload run.
func goldenConfigs() []Config {
	policies := []sprint.Policy{
		{Timeout: -1},
		{Timeout: 0, BudgetSeconds: 1e9, RefillTime: 1, Speedup: 1.2},
		{Timeout: 60, BudgetSeconds: 120, RefillTime: 600, Speedup: 99},
		{Timeout: 20, BudgetSeconds: 1e12, RefillTime: 1, Speedup: 99},
	}
	mechs := []mech.Mechanism{mech.DVFS{}, mech.CoreScale{}, mech.NewThrottle(0.5)}
	var cfgs []Config
	for _, class := range workload.Catalog() {
		for _, m := range mechs {
			for _, p := range policies {
				for _, slots := range []int{1, 3} {
					cfgs = append(cfgs, Config{
						Mix:         workload.SingleClass(class),
						Mechanism:   m,
						Policy:      p,
						ArrivalRate: 0.8 * float64(slots) * sprint.QPH(m.SustainedQPH(class)),
						Slots:       slots,
						NumQueries:  150,
						Warmup:      15,
						Seed:        uint64(len(cfgs) + 1),
					})
				}
			}
		}
	}
	mix := workload.MixI()
	return append(cfgs, Config{
		Mix:         mix,
		Mechanism:   mech.DVFS{},
		Policy:      sprint.Policy{Timeout: 30, BudgetSeconds: 600, RefillTime: 300, Speedup: 99},
		ArrivalRate: 0.7 * mix.SustainedRate(),
		NumQueries:  300,
		Warmup:      30,
		Seed:        7,
	})
}

// fingerprint hashes the configs' measured query records in order.
func fingerprint(cfgs []Config) string {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	flag := func(b bool) {
		if b {
			word(1)
		} else {
			word(0)
		}
	}
	for _, cfg := range cfgs {
		res := MustRun(cfg)
		word(uint64(len(res.Queries)))
		for i := range res.Queries {
			q := &res.Queries[i]
			word(math.Float64bits(q.Start))
			word(math.Float64bits(q.Depart))
			word(math.Float64bits(q.SprintSeconds))
			word(math.Float64bits(q.SprintTau))
			flag(q.Sprinted)
			flag(q.TimedOut)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenFingerprint holds the testbed's output bit-identical across
// refactors of its event loop.
func TestGoldenFingerprint(t *testing.T) {
	if got := fingerprint(goldenConfigs()); got != goldenFingerprint {
		t.Fatalf("testbed fingerprint %s, want %s: the testbed's output changed", got, goldenFingerprint)
	}
}

// BenchmarkTestbedRun times one 2,200-query Jacobi run (2,000 measured
// after 200 warmup) under a sprinting policy that exercises timeouts,
// budget exhaustion and refill.
func BenchmarkTestbedRun(b *testing.B) {
	cfg := jacobiCfg()
	cfg.ArrivalRate = 0.8 * sprint.QPH(51)
	cfg.Policy = sprint.Policy{Timeout: 60, BudgetSeconds: 2000, RefillTime: 200, Speedup: 99}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MustRun(cfg)
	}
}
