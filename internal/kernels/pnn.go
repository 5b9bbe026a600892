package kernels

import "dws/internal/rt"

// PNN is a GMDH-style polynomial neural network: each unit of a layer
// combines two outputs of the previous layer through a full quadratic
// polynomial. Networks are deterministic in their seed.
type PNN struct {
	inputs int
	layers [][]pnnUnit
}

type pnnUnit struct {
	i1, i2 int        // indices into the previous layer's outputs
	c      [6]float64 // 1, x1, x2, x1², x2², x1·x2 coefficients
}

// NewPNN builds a network with the given layer widths over inputs
// input features.
func NewPNN(inputs int, layerWidths []int, seed int64) *PNN {
	rng := newStream(seed)
	p := &PNN{inputs: inputs}
	prev := inputs
	for _, width := range layerWidths {
		layer := make([]pnnUnit, width)
		for i := range layer {
			u := &layer[i]
			u.i1 = rng.intn(prev)
			u.i2 = rng.intn(prev)
			for j := range u.c {
				// Small coefficients keep deep networks numerically tame.
				u.c[j] = rng.unit() * 0.5
			}
		}
		p.layers = append(p.layers, layer)
		prev = width
	}
	return p
}

// Inputs returns the input feature count.
func (p *PNN) Inputs() int { return p.inputs }

// Outputs returns the final layer width.
func (p *PNN) Outputs() int { return len(p.layers[len(p.layers)-1]) }

func (u *pnnUnit) eval(prev []float64) float64 {
	x1, x2 := prev[u.i1], prev[u.i2]
	return u.c[0] + u.c[1]*x1 + u.c[2]*x2 + u.c[3]*x1*x1 + u.c[4]*x2*x2 + u.c[5]*x1*x2
}

// forwardSample evaluates the network for one sample.
func (p *PNN) forwardSample(sample []float64) []float64 {
	prev := sample
	for _, layer := range p.layers {
		out := make([]float64, len(layer))
		for i := range layer {
			out[i] = layer[i].eval(prev)
		}
		prev = out
	}
	return prev
}

// ForwardSeq evaluates the network over a batch sequentially, returning
// one output vector per sample.
func (p *PNN) ForwardSeq(batch [][]float64) [][]float64 {
	out := make([][]float64, len(batch))
	for i, s := range batch {
		out[i] = p.forwardSample(s)
	}
	return out
}

// ForwardTask returns a task evaluating the network over the batch layer
// by layer, parallelised over sample chunks with a barrier per layer
// (the simulator's p-2 profile). out must have len(batch) slots.
func (p *PNN) ForwardTask(batch [][]float64, out [][]float64) rt.Task {
	return func(c *rt.Ctx) {
		// acts[i] is sample i's current activation vector.
		acts := make([][]float64, len(batch))
		for i := range batch {
			acts[i] = batch[i]
		}
		for _, layer := range p.layers {
			layer := layer
			next := make([][]float64, len(batch))
			chunks(len(batch), func(lo, hi int) {
				c.Spawn(func(*rt.Ctx) {
					for s := lo; s < hi; s++ {
						o := make([]float64, len(layer))
						for i := range layer {
							o[i] = layer[i].eval(acts[s])
						}
						next[s] = o
					}
				})
			})
			c.Sync()
			acts = next
		}
		copy(out, acts)
	}
}

// RandBatch returns n samples of dim features each, deterministic in seed.
func RandBatch(n, dim int, seed int64) [][]float64 {
	rng := newStream(seed)
	batch := make([][]float64, n)
	for i := range batch {
		s := make([]float64, dim)
		for j := range s {
			s[j] = rng.unit()
		}
		batch[i] = s
	}
	return batch
}
