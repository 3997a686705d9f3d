// Package ann implements the artificial-neural-network baseline of Table
// 1(A): a multi-layer perceptron that maps sprinting policies and workload
// conditions directly to response time. The paper contrasts it with the
// hybrid model: the ANN must learn the discontinuous policy-to-response-
// time surface end to end, so it needs 6x-54x more training data to match
// the hybrid approach (Section 3.1).
//
// The network is a standard fully connected MLP — ReLU activations, He
// initialisation, Adam optimiser, z-score normalisation of inputs and
// target — written against the standard library only.
package ann

import (
	"fmt"
	"math"

	"mdsprint/internal/dist"
)

// Config describes the network and its training run.
type Config struct {
	// HiddenLayers and Width define the architecture. The paper's
	// baseline uses 10 hidden layers of 100 neurons.
	HiddenLayers int
	Width        int
	// LearningRate for Adam (default 1e-3).
	LearningRate float64
	// Epochs over the training set (default 200).
	Epochs int
	// BatchSize for minibatch SGD (default 32).
	BatchSize int
	// Seed drives initialisation and shuffling.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.HiddenLayers == 0 {
		c.HiddenLayers = 10
	}
	if c.Width == 0 {
		c.Width = 100
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 1e-3
	}
	if c.Epochs == 0 {
		c.Epochs = 200
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	return c
}

// layer is one dense layer with Adam state.
type layer struct {
	in, out int
	w       []float64 // out x in, row-major
	b       []float64
	// Adam moments.
	mw, vw []float64
	mb, vb []float64
}

func newLayer(in, out int, r *dist.RNG) *layer {
	l := &layer{
		in: in, out: out,
		w:  make([]float64, in*out),
		b:  make([]float64, out),
		mw: make([]float64, in*out),
		vw: make([]float64, in*out),
		mb: make([]float64, out),
		vb: make([]float64, out),
	}
	// He initialisation for ReLU networks.
	scale := math.Sqrt(2 / float64(in))
	for i := range l.w {
		l.w[i] = r.NormFloat64() * scale
	}
	return l
}

// Network is a trained MLP regressor.
type Network struct {
	cfg    Config
	layers []*layer
	inMean []float64
	inStd  []float64
	outMu  float64
	outSd  float64
}

// Train fits the network to (inputs, targets). All input rows must share a
// width. Training is deterministic for a fixed config.
func Train(inputs [][]float64, targets []float64, cfg Config) (*Network, error) {
	return train(inputs, targets, cfg, (*Network).fit)
}

// train validates the data, initialises the network and hands the
// normalised rows to fit.
func train(inputs [][]float64, targets []float64, cfg Config, fit func(*Network, [][]float64, []float64, *dist.RNG)) (*Network, error) {
	if len(inputs) == 0 || len(inputs) != len(targets) {
		return nil, fmt.Errorf("ann: %d inputs vs %d targets", len(inputs), len(targets))
	}
	width := len(inputs[0])
	if width == 0 {
		return nil, fmt.Errorf("ann: empty feature vectors")
	}
	for i, row := range inputs {
		if len(row) != width {
			return nil, fmt.Errorf("ann: row %d has %d features, want %d", i, len(row), width)
		}
	}
	c := cfg.withDefaults()
	r := dist.NewRNG(c.Seed)

	n := &Network{cfg: c}
	n.normalise(inputs, targets)

	// Architecture: width -> [Width]*HiddenLayers -> 1.
	sizes := make([]int, 0, c.HiddenLayers+2)
	sizes = append(sizes, width)
	for i := 0; i < c.HiddenLayers; i++ {
		sizes = append(sizes, c.Width)
	}
	sizes = append(sizes, 1)
	for i := 0; i+1 < len(sizes); i++ {
		n.layers = append(n.layers, newLayer(sizes[i], sizes[i+1], r))
	}

	// Pre-normalised copies of the data.
	X := make([][]float64, len(inputs))
	Y := make([]float64, len(targets))
	for i := range inputs {
		X[i] = n.normIn(inputs[i])
		Y[i] = (targets[i] - n.outMu) / n.outSd
	}

	fit(n, X, Y, r)
	return n, nil
}

// normalise records z-score statistics of the training data.
func (n *Network) normalise(inputs [][]float64, targets []float64) {
	width := len(inputs[0])
	n.inMean = make([]float64, width)
	n.inStd = make([]float64, width)
	for j := 0; j < width; j++ {
		sum := 0.0
		for _, row := range inputs {
			sum += row[j]
		}
		mean := sum / float64(len(inputs))
		varSum := 0.0
		for _, row := range inputs {
			d := row[j] - mean
			varSum += d * d
		}
		sd := math.Sqrt(varSum / float64(len(inputs)))
		if sd < 1e-12 {
			sd = 1
		}
		n.inMean[j], n.inStd[j] = mean, sd
	}
	sum := 0.0
	for _, y := range targets {
		sum += y
	}
	n.outMu = sum / float64(len(targets))
	varSum := 0.0
	for _, y := range targets {
		d := y - n.outMu
		varSum += d * d
	}
	n.outSd = math.Sqrt(varSum / float64(len(targets)))
	if n.outSd < 1e-12 {
		n.outSd = 1
	}
}

func (n *Network) normIn(row []float64) []float64 {
	out := make([]float64, len(row))
	for j, v := range row {
		out[j] = (v - n.inMean[j]) / n.inStd[j]
	}
	return out
}

// fit runs minibatch Adam over the normalised data. Each minibatch moves
// through the network one layer at a time with all of its rows together:
// the forward pass fills every row's activations for a layer before the
// next, and the backward pass accumulates a layer's gradients and its
// input deltas over the whole batch. Every sum adds the same terms in the
// same order as pushing the rows through one at a time (gradients in
// batch-row order, deltas in output order), so the trained weights do not
// depend on the layout. All buffers are allocated here, once per Train.
func (n *Network) fit(X [][]float64, Y []float64, r *dist.RNG) {
	c := n.cfg
	last := len(n.layers) - 1
	rows := min(c.BatchSize, len(X))
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	swap := func(i, j int) { idx[i], idx[j] = idx[j], idx[i] }

	acts := n.newActs(rows)
	width := n.layers[0].in
	acts[0] = make([]float64, rows*width)
	maxWidth := width
	gw := make([][]float64, len(n.layers))
	gb := make([][]float64, len(n.layers))
	for li, l := range n.layers {
		maxWidth = max(maxWidth, l.out)
		gw[li] = make([]float64, len(l.w))
		gb[li] = make([]float64, len(l.b))
	}
	// Deltas at a layer's output and at its input, swapped per layer.
	delta := make([]float64, rows*maxWidth)
	next := make([]float64, rows*maxWidth)

	step := 0
	for epoch := 0; epoch < c.Epochs; epoch++ {
		r.Shuffle(len(idx), swap)
		for start := 0; start < len(idx); start += c.BatchSize {
			batch := idx[start:min(start+c.BatchSize, len(idx))]
			for k, si := range batch {
				copy(acts[0][k*width:(k+1)*width], X[si])
			}
			n.forward(acts, len(batch))
			// MSE loss: dL/dout = 2*(out - y); constant 2 folds into
			// the learning rate.
			out := acts[last+1]
			for k, si := range batch {
				delta[k] = out[k] - Y[si]
			}
			for li := last; li >= 0; li-- {
				l := n.layers[li]
				relu := li < last
				clear(gw[li])
				clear(gb[li])
				l.accumulate(gw[li], gb[li], acts[li], acts[li+1], delta, len(batch), relu)
				if li > 0 {
					l.backprop(next, delta, acts[li+1], len(batch), relu)
					delta, next = next, delta
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

// newActs allocates every layer's output buffer for batches of up to rows
// rows; acts[li+1] holds layer li's outputs row-major. acts[0], the
// input, is left to the caller.
func (n *Network) newActs(rows int) [][]float64 {
	acts := make([][]float64, len(n.layers)+1)
	for li, l := range n.layers {
		acts[li+1] = make([]float64, rows*l.out)
	}
	return acts
}

// forward pushes the first rows rows of acts[0] through the network one
// layer at a time: ReLU on hidden layers, linear output.
func (n *Network) forward(acts [][]float64, rows int) {
	last := len(n.layers) - 1
	for li, l := range n.layers {
		l.forward(acts[li], acts[li+1], rows, li < last)
	}
}

// forward computes out = w·x + b for rows rows of x, four rows per pass
// over each weight row, each row with its own accumulator.
func (l *layer) forward(x, out []float64, rows int, relu bool) {
	in := l.in
	for o := 0; o < l.out; o++ {
		w := l.w[o*in : (o+1)*in]
		b := l.b[o]
		k := 0
		for ; k+4 <= rows; k += 4 {
			x0 := x[k*in:][:len(w)]
			x1 := x[(k+1)*in:][:len(w)]
			x2 := x[(k+2)*in:][:len(w)]
			x3 := x[(k+3)*in:][:len(w)]
			s0, s1, s2, s3 := b, b, b, b
			for i, wi := range w {
				s0 += wi * x0[i]
				s1 += wi * x1[i]
				s2 += wi * x2[i]
				s3 += wi * x3[i]
			}
			out[k*l.out+o] = activate(s0, relu)
			out[(k+1)*l.out+o] = activate(s1, relu)
			out[(k+2)*l.out+o] = activate(s2, relu)
			out[(k+3)*l.out+o] = activate(s3, relu)
		}
		for ; k < rows; k++ {
			xk := x[k*in:][:len(w)]
			s := b
			for i, wi := range w {
				s += wi * xk[i]
			}
			out[k*l.out+o] = activate(s, relu)
		}
	}
}

// activate is ReLU on hidden layers and the identity on the output.
func activate(s float64, relu bool) float64 {
	if relu && s < 0 {
		return 0
	}
	return s
}

// accumulate adds the batch's gradients to gw and gb; each gradient row
// sums the active rows' terms in batch-row order. A row whose ReLU is off
// would add ±0 to a sum that starts at +0 and so is never -0, which
// leaves every bit unchanged, so it is skipped. backprop skips inactive
// outputs for the same reason.
func (l *layer) accumulate(gw, gb, x, act, delta []float64, rows int, relu bool) {
	in := l.in
	var t terms
	for o := 0; o < l.out; o++ {
		g := gw[o*in:][:in]
		for k := 0; k < rows; k++ {
			if relu && act[k*l.out+o] <= 0 {
				continue
			}
			d := delta[k*l.out+o]
			gb[o] += d
			t.add(g, d, x[k*in:][:in])
		}
		t.flush(g)
	}
}

// backprop writes each row's delta at the layer input into next: the sum
// over active outputs, in ascending output order, of the output delta
// times the output's weight row.
func (l *layer) backprop(next, delta, act []float64, rows int, relu bool) {
	in := l.in
	var t terms
	for k := 0; k < rows; k++ {
		nd := next[k*in:][:in]
		clear(nd)
		for o, d := range delta[k*l.out:][:l.out] {
			if relu && act[k*l.out+o] <= 0 {
				continue
			}
			t.add(nd, d, l.w[o*in:][:in])
		}
		t.flush(nd)
	}
}

// terms queues scaled vectors d*a bound for one destination and adds them
// four per pass over it, each element summing the terms in queue order.
type terms struct {
	n int
	d [4]float64
	a [4][]float64
}

// add queues d*a for dst; the fourth queued term adds all four to dst.
func (t *terms) add(dst []float64, d float64, a []float64) {
	t.d[t.n], t.a[t.n] = d, a
	if t.n++; t.n < 4 {
		return
	}
	t.n = 0
	d0, d1, d2, d3 := t.d[0], t.d[1], t.d[2], t.d[3]
	a0, a1, a2, a3 := t.a[0][:len(dst)], t.a[1][:len(dst)], t.a[2][:len(dst)], t.a[3][:len(dst)]
	for i := range dst {
		v := dst[i]
		v += d0 * a0[i]
		v += d1 * a1[i]
		v += d2 * a2[i]
		v += d3 * a3[i]
		dst[i] = v
	}
}

// flush adds the queued remainder of fewer than four terms to dst.
func (t *terms) flush(dst []float64) {
	for j := 0; j < t.n; j++ {
		d, a := t.d[j], t.a[j][:len(dst)]
		for i := range dst {
			dst[i] += d * a[i]
		}
	}
	t.n = 0
}

// adam applies one Adam update to params given accumulated gradients.
func adam(params, grads, m, v []float64, lr, scale float64, step int) {
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	bc1 := 1 - math.Pow(beta1, float64(step))
	bc2 := 1 - math.Pow(beta2, float64(step))
	grads, m, v = grads[:len(params)], m[:len(params)], v[:len(params)]
	for i := range params {
		g := grads[i] * scale
		m[i] = beta1*m[i] + (1-beta1)*g
		v[i] = beta2*v[i] + (1-beta2)*g*g
		mhat := m[i] / bc1
		vhat := v[i] / bc2
		params[i] -= lr * mhat / (math.Sqrt(vhat) + eps)
	}
}

// Predict returns the network's estimate for one input row.
func (n *Network) Predict(row []float64) float64 {
	if len(row) != len(n.inMean) {
		panic(fmt.Sprintf("ann: %d features, trained on %d", len(row), len(n.inMean)))
	}
	acts := n.newActs(1)
	acts[0] = n.normIn(row)
	n.forward(acts, 1)
	return acts[len(n.layers)][0]*n.outSd + n.outMu
}
