package stats

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"mdsprint/internal/dist"
)

// sameFloat is bitwise equality, except that any two NaNs match and the
// two zeros match: sort.Float64s leaves equal keys in unspecified order,
// so Summarize itself may read either zero when both are present.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if a == 0 && b == 0 {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkTailSummary runs TailSummary on a copy of xs and requires Mean,
// P95 and P99 identical to Summarize's, and the copy to be a reordering
// of xs.
func checkTailSummary(t *testing.T, xs []float64) {
	t.Helper()
	want := Summarize(xs)
	work := slices.Clone(xs)
	mean, p95, p99 := TailSummary(work)
	if !sameFloat(mean, want.Mean) || !sameFloat(p95, want.P95) || !sameFloat(p99, want.P99) {
		t.Fatalf("n=%d: TailSummary = (%v, %v, %v), Summarize = (%v, %v, %v)",
			len(xs), mean, p95, p99, want.Mean, want.P95, want.P99)
	}
	got, ref := slices.Clone(work), slices.Clone(xs)
	slices.Sort(got)
	slices.Sort(ref)
	for i := range ref {
		if !sameFloat(got[i], ref[i]) {
			t.Fatalf("n=%d: TailSummary changed the multiset at sorted index %d: %v vs %v", len(xs), i, got[i], ref[i])
		}
	}
}

func TestTailSummaryEmpty(t *testing.T) {
	mean, p95, p99 := TailSummary(nil)
	if !math.IsNaN(mean) || !math.IsNaN(p95) || !math.IsNaN(p99) {
		t.Fatalf("TailSummary(nil) = (%v, %v, %v), want NaNs", mean, p95, p99)
	}
}

// TestTailSummaryRandomLengths covers lengths 1-5000 drawn at random,
// plus every length up to 300, which crosses each n at which P95's and
// P99's lower order statistic moves off the second-largest element.
func TestTailSummaryRandomLengths(t *testing.T) {
	rng := dist.NewRNG(20)
	lengths := make([]int, 0, 400)
	for n := 1; n <= 300; n++ {
		lengths = append(lengths, n)
	}
	for i := 0; i < 100; i++ {
		lengths = append(lengths, 1+rng.Intn(5000))
	}
	lengths = append(lengths, 5000)
	for _, n := range lengths {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64() * 50
		}
		checkTailSummary(t, xs)
	}
}

func TestTailSummaryHeavyTies(t *testing.T) {
	rng := dist.NewRNG(21)
	for _, distinct := range []int{1, 2, 3, 5} {
		for _, n := range []int{2, 21, 22, 101, 102, 1000, 4000} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(rng.Intn(distinct))
			}
			checkTailSummary(t, xs)
		}
	}
}

func TestTailSummarySortedInputs(t *testing.T) {
	for _, n := range []int{1, 2, 3, 100, 101, 102, 4000} {
		asc := make([]float64, n)
		desc := make([]float64, n)
		for i := range asc {
			asc[i] = float64(i)
			desc[i] = float64(n - i)
		}
		checkTailSummary(t, asc)
		checkTailSummary(t, desc)
	}
}

// TestTailSummaryTopNeighbour pins the smallest n at which each
// percentile interpolates toward the largest element (lo+1 == n-1), and
// the last n where it still does.
func TestTailSummaryTopNeighbour(t *testing.T) {
	for _, q := range []float64{0.95, 0.99} {
		first, last := 0, 0
		for n := 2; n <= 1000; n++ {
			if int(q*float64(n-1))+1 == n-1 {
				if first == 0 {
					first = n
				}
				last = n
			}
		}
		if first != 2 {
			t.Fatalf("q=%v: smallest n with lo+1 == n-1 is %d, want 2", q, first)
		}
		for _, n := range []int{first, last, last + 1} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64((i * 7919) % n)
			}
			checkTailSummary(t, xs)
		}
	}
}

func TestTailSummaryNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, xs := range [][]float64{
		{nan},
		{3, nan, 1},
		{nan, nan, 2},
		{inf, 1, 2},
		{-inf, inf, 5, 4},
		{inf, inf, inf},
		{nan, inf, -inf, 0, 1, nan},
	} {
		checkTailSummary(t, xs)
	}
}

// TestTailSummaryAdversarial feeds organ-pipe inputs (ascending, then
// descending), which defeat the median-of-three pivot, so selection
// exhausts its partitioning budget, falls back to sorting and must
// still agree.
func TestTailSummaryAdversarial(t *testing.T) {
	for _, n := range []int{100, 101, 4000} {
		organ := make([]float64, n)
		for i := range organ {
			organ[i] = float64(min(i, n-1-i))
		}
		checkTailSummary(t, organ)
	}
}

// FuzzTailSummary decodes arbitrary bytes as float64s — NaNs, zeros of
// both signs and infinities included — and requires TailSummary to agree
// with Summarize. A nonzero ties argument folds the values into that
// many buckets, so ties are common.
func FuzzTailSummary(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(1, 2, 3), uint8(0))
	f.Add(seed(5, 4, 3, 2, 1, 0, -1), uint8(0))
	f.Add(seed(math.NaN(), 2, math.Inf(1), -3), uint8(0))
	f.Add(seed(7, 7, 7, 7, 1, 9, 7), uint8(2))
	f.Add(seed(0, math.Copysign(0, -1), 1), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, ties uint8) {
		xs := make([]float64, len(data)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			if ties > 0 && !math.IsNaN(xs[i]) && !math.IsInf(xs[i], 0) {
				xs[i] = float64(int64(math.Abs(xs[i])) % int64(ties))
			}
		}
		if len(xs) == 0 {
			return
		}
		checkTailSummary(t, xs)
	})
}
