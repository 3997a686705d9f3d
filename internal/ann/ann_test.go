package ann

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/stats"
)

// smallCfg keeps test networks cheap.
var smallCfg = Config{HiddenLayers: 2, Width: 16, Epochs: 300, Seed: 1}

func genData(n int, seed uint64, f func([]float64) float64) ([][]float64, []float64) {
	r := dist.NewRNG(seed)
	X := make([][]float64, n)
	Y := make([]float64, n)
	for i := range X {
		X[i] = []float64{r.Float64() * 4, r.Float64()*2 - 1}
		Y[i] = f(X[i])
	}
	return X, Y
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, nil, smallCfg); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := Train([][]float64{{1}}, []float64{1, 2}, smallCfg); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Train([][]float64{{}}, []float64{1}, smallCfg); err == nil {
		t.Error("zero-width features accepted")
	}
	if _, err := Train([][]float64{{1, 2}, {1}}, []float64{1, 2}, smallCfg); err == nil {
		t.Error("ragged rows accepted")
	}
}

func TestLearnsLinearFunction(t *testing.T) {
	f := func(x []float64) float64 { return 3*x[0] - 2*x[1] + 5 }
	X, Y := genData(400, 2, f)
	net, err := Train(X, Y, smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	Xt, Yt := genData(100, 3, f)
	var preds []float64
	for _, row := range Xt {
		preds = append(preds, net.Predict(row))
	}
	if med := stats.MedianAbsRelError(preds, Yt); med > 0.05 {
		t.Fatalf("median error %v on linear target", med)
	}
}

func TestLearnsNonlinearFunction(t *testing.T) {
	f := func(x []float64) float64 { return math.Sin(x[0]) + x[1]*x[1] + 3 }
	X, Y := genData(800, 4, f)
	cfg := smallCfg
	cfg.Epochs = 600
	net, err := Train(X, Y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	Xt, Yt := genData(150, 5, f)
	var preds []float64
	for _, row := range Xt {
		preds = append(preds, net.Predict(row))
	}
	if med := stats.MedianAbsRelError(preds, Yt); med > 0.08 {
		t.Fatalf("median error %v on nonlinear target", med)
	}
}

func TestDeterministicTraining(t *testing.T) {
	f := func(x []float64) float64 { return x[0] + x[1] }
	X, Y := genData(100, 6, f)
	a, _ := Train(X, Y, smallCfg)
	b, _ := Train(X, Y, smallCfg)
	probe := []float64{1.5, 0.2}
	if a.Predict(probe) != b.Predict(probe) {
		t.Fatal("training not deterministic")
	}
}

func TestPredictPanicsOnWidthMismatch(t *testing.T) {
	X, Y := genData(50, 7, func(x []float64) float64 { return x[0] })
	net, _ := Train(X, Y, smallCfg)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on width mismatch")
		}
	}()
	net.Predict([]float64{1})
}

func TestConstantTarget(t *testing.T) {
	X, _ := genData(80, 8, func(x []float64) float64 { return 0 })
	Y := make([]float64, len(X))
	for i := range Y {
		Y[i] = 42
	}
	net, err := Train(X, Y, smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Predict([]float64{2, 0}); math.Abs(got-42) > 0.5 {
		t.Fatalf("constant target predicted %v, want 42", got)
	}
}

func TestMoreDataImproves(t *testing.T) {
	// The Section 3.1 phenomenon in miniature: on a discontinuous
	// target, the ANN improves markedly with more training data.
	f := func(x []float64) float64 {
		if x[0] > 2 && x[1] > 0 {
			return 100.0
		}
		return 10
	}
	test, testY := genData(300, 9, f)
	evalNet := func(n int, seed uint64) float64 {
		X, Y := genData(n, seed, f)
		cfg := smallCfg
		cfg.Epochs = 200
		net, err := Train(X, Y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var preds []float64
		for _, row := range test {
			preds = append(preds, net.Predict(row))
		}
		return stats.MedianAbsRelError(preds, testY)
	}
	small := evalNet(40, 10)
	large := evalNet(800, 11)
	if large >= small {
		t.Fatalf("more data did not help: %v (n=40) vs %v (n=800)", small, large)
	}
}

func TestDeepDefaultArchitecture(t *testing.T) {
	// Default config is the paper's 10x100 network; train a tiny run to
	// confirm the deep stack is trainable end to end.
	f := func(x []float64) float64 { return 2 * x[0] }
	X, Y := genData(60, 12, f)
	cfg := Config{Epochs: 30, Seed: 13}
	net, err := Train(X, Y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.layers) != 11 {
		t.Fatalf("default network has %d layers, want 11 (10 hidden + output)", len(net.layers))
	}
	if math.IsNaN(net.Predict([]float64{1, 0})) {
		t.Fatal("deep network produced NaN")
	}
}

// paperData draws rows of the Figure 7 feature shape (11 features: the
// policy, the workload condition and the arrival rate) with a response
// time that jumps once the timeout passes a threshold, the kind of
// surface the paper's ANN baseline has to learn.
func paperData(rows int, seed uint64) ([][]float64, []float64) {
	r := dist.NewRNG(seed)
	X := make([][]float64, rows)
	Y := make([]float64, rows)
	for i := range X {
		row := make([]float64, 11)
		for j := range row {
			row[j] = r.Float64() * float64(j+1)
		}
		X[i] = row
		y := 0.5 + row[0]*row[3] + math.Sqrt(row[7])
		if row[1] > 1 {
			y += 4
		}
		Y[i] = y
	}
	return X, Y
}

// weightsFingerprint hashes every weight and bias bit pattern, layer by
// layer, with FNV-64a.
func weightsFingerprint(n *Network) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(vs []float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	for _, l := range n.layers {
		put(l.w)
		put(l.b)
	}
	return h.Sum64()
}

// The reference trainer below is the original row-at-a-time minibatch
// Adam loop, kept as the differential oracle for the layer-major fit:
// every weight and bias the production trainer produces must match it
// bit for bit.

// refFit runs minibatch Adam over the normalised data.
func (n *Network) refFit(X [][]float64, Y []float64, r *dist.RNG) {
	c := n.cfg
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	// Forward activations and backward deltas, reused across samples.
	acts := make([][]float64, len(n.layers)+1)
	pre := make([][]float64, len(n.layers))
	step := 0
	for epoch := 0; epoch < c.Epochs; epoch++ {
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += c.BatchSize {
			end := start + c.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch := idx[start:end]
			// Accumulate gradients over the batch.
			gw := make([][]float64, len(n.layers))
			gb := make([][]float64, len(n.layers))
			for li, l := range n.layers {
				gw[li] = make([]float64, len(l.w))
				gb[li] = make([]float64, len(l.b))
			}
			for _, si := range batch {
				n.refForward(X[si], acts, pre)
				// MSE loss: dL/dout = 2*(out - y); constant 2
				// folds into the learning rate.
				delta := []float64{acts[len(n.layers)][0] - Y[si]}
				for li := len(n.layers) - 1; li >= 0; li-- {
					l := n.layers[li]
					in := acts[li]
					nextDelta := make([]float64, l.in)
					for o := 0; o < l.out; o++ {
						d := delta[o]
						if li < len(n.layers)-1 && pre[li][o] <= 0 {
							d = 0 // ReLU gradient
						}
						gb[li][o] += d
						row := l.w[o*l.in : (o+1)*l.in]
						for i2 := 0; i2 < l.in; i2++ {
							gw[li][o*l.in+i2] += d * in[i2]
							nextDelta[i2] += d * row[i2]
						}
					}
					delta = nextDelta
				}
			}
			step++
			scale := 1 / float64(len(batch))
			for li, l := range n.layers {
				adam(l.w, gw[li], l.mw, l.vw, c.LearningRate, scale, step)
				adam(l.b, gb[li], l.mb, l.vb, c.LearningRate, scale, step)
			}
		}
	}
}

// refForward computes activations; acts[0] is the input, acts[len] the
// output. pre holds pre-activation values for ReLU gradients.
func (n *Network) refForward(x []float64, acts, pre [][]float64) {
	acts[0] = x
	for li, l := range n.layers {
		if pre[li] == nil {
			pre[li] = make([]float64, l.out)
		}
		out := make([]float64, l.out)
		in := acts[li]
		for o := 0; o < l.out; o++ {
			sum := l.b[o]
			row := l.w[o*l.in : (o+1)*l.in]
			for i := range row {
				sum += row[i] * in[i]
			}
			pre[li][o] = sum
			if li < len(n.layers)-1 && sum < 0 {
				sum = 0 // ReLU on hidden layers, linear output
			}
			out[o] = sum
		}
		acts[li+1] = out
	}
}

// refPredict is Predict through the reference forward pass.
func (n *Network) refPredict(row []float64) float64 {
	acts := make([][]float64, len(n.layers)+1)
	pre := make([][]float64, len(n.layers))
	n.refForward(n.normIn(row), acts, pre)
	return acts[len(n.layers)][0]*n.outSd + n.outMu
}

// TestFitMatchesReference trains each case with the production fit and
// with the reference loop and demands identical bits in every weight,
// bias and Adam moment, and in predictions through both forward passes.
func TestFitMatchesReference(t *testing.T) {
	paper := Config{HiddenLayers: 10, Width: 100, Epochs: 30, Seed: 18}
	cases := []struct {
		name string
		rows int
		cfg  Config
	}{
		{"paper-26-rows", 26, paper},
		{"two-batches-short-tail", 42, paper},
		{"batch-8", 77, Config{HiddenLayers: 10, Width: 100, Epochs: 20, BatchSize: 8, Seed: 19}},
		{"batch-larger-than-rows", 26, Config{HiddenLayers: 10, Width: 100, Epochs: 30, BatchSize: 64, Seed: 20}},
		{"small-net", 150, Config{HiddenLayers: 2, Width: 16, Epochs: 300, Seed: 21}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			X, Y := paperData(tc.rows, uint64(tc.rows))
			got, err := Train(X, Y, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := train(X, Y, tc.cfg, (*Network).refFit)
			if err != nil {
				t.Fatal(err)
			}
			for li := range want.layers {
				g, w := got.layers[li], want.layers[li]
				for _, p := range []struct {
					name      string
					got, want []float64
				}{
					{"w", g.w, w.w}, {"b", g.b, w.b},
					{"mw", g.mw, w.mw}, {"vw", g.vw, w.vw},
					{"mb", g.mb, w.mb}, {"vb", g.vb, w.vb},
				} {
					for i := range p.want {
						if math.Float64bits(p.got[i]) != math.Float64bits(p.want[i]) {
							t.Fatalf("layer %d %s[%d] = %v, reference %v", li, p.name, i, p.got[i], p.want[i])
						}
					}
				}
			}
			for _, row := range X[:5] {
				if g, w := got.Predict(row), want.refPredict(row); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("Predict = %v, reference %v", g, w)
				}
			}
		})
	}
}

// goldenPaperNet is the FNV-64a fingerprint of the 10x100 network
// trained on paperData(26, 7) for 40 epochs with seed 17. It was
// recorded from the reference row-at-a-time trainer; any change to the
// initialisation, shuffling, summation order or Adam step moves it.
const goldenPaperNet = 0x121c1c8d02be8a6

func TestPaperNetGoldenFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The Go spec lets a compiler fuse x*y+z into one rounding, and
		// the arm64, ppc64 and s390x back ends do; the golden holds the
		// unfused sums amd64 computes. TestFitMatchesReference still
		// pins bit identity on every architecture.
		t.Skip("golden recorded with unfused multiply-add (amd64)")
	}
	X, Y := paperData(26, 7)
	net, err := Train(X, Y, Config{HiddenLayers: 10, Width: 100, Epochs: 40, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if fp := weightsFingerprint(net); fp != goldenPaperNet {
		t.Fatalf("trained weights fingerprint %#x, golden %#x", fp, uint64(goldenPaperNet))
	}
}

// TestTrainZeroAllocsPerEpoch pins the training loop's allocation
// budget: every buffer is sized once per Train call, so a 40-epoch run
// allocates exactly as many objects as a 1-epoch run.
func TestTrainZeroAllocsPerEpoch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	X, Y := paperData(42, 3)
	allocs := func(epochs int) float64 {
		cfg := Config{HiddenLayers: 3, Width: 24, Epochs: epochs, BatchSize: 16, Seed: 5}
		return testing.AllocsPerRun(5, func() {
			if _, err := Train(X, Y, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, forty := allocs(1), allocs(40); one != forty {
		t.Fatalf("Train allocated %.0f objects at 1 epoch and %.0f at 40, want the same", one, forty)
	}
}

// BenchmarkTrainPaperNet trains the paper's 10x100 baseline at the
// Figure 7 shape: 11 features, 26 training rows, 250 epochs.
func BenchmarkTrainPaperNet(b *testing.B) {
	X, Y := paperData(26, 7)
	cfg := Config{HiddenLayers: 10, Width: 100, Epochs: 250, Seed: 17}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Train(X, Y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
