package main

import (
	"math"

	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/tensor"
)

// gradPoolLen is the length of the shared gradient noise pool. Every
// gradient is a window of it, so generating one costs nothing and the
// benchmark's load stays the optimizer's arithmetic, not random numbers.
const gradPoolLen = 1 << 18

// loadGen is the seeded load generator: which layers a step updates, and
// their gradients. Everything is a pure function of (seed, step), so a
// recovered run that replays steps from a checkpoint replays them exactly.
type loadGen struct {
	seed   uint64
	dense  bool
	hot    []int // indices into layers updated every step
	cold   []int // the rest, updated rarely
	layers []modelcfg.LayerRef
	names  [][]string // tensor names per layer, parallel to layers
	sizes  [][]int    // element counts per layer, parallel to names
	// coldEvery: one cold layer is updated on every coldEvery-th step.
	coldEvery int
	pool      []float32
}

// newLoadGen builds the generator. hot layers are drawn from the
// transformer blocks, alternately even and odd; dense makes every layer
// update every step.
func newLoadGen(cfg *modelcfg.Config, seed uint64, dense bool, hot, coldEvery int) *loadGen {
	g := &loadGen{seed: seed, dense: dense, layers: cfg.AllLayers(), coldEvery: coldEvery}
	byLayer := map[modelcfg.LayerRef]int{}
	for i, ref := range g.layers {
		byLayer[ref] = i
	}
	g.names = make([][]string, len(g.layers))
	g.sizes = make([][]int, len(g.layers))
	for _, s := range cfg.Tensors() {
		i := byLayer[s.Layer]
		g.names[i] = append(g.names[i], s.Name)
		g.sizes[i] = append(g.sizes[i], int(s.NumElems()))
	}
	// Seeded hot set: half from the even blocks, half from the odd ones,
	// so every seed puts the same share of hot bytes in each parity half.
	var blocks [2][]int
	for i, ref := range g.layers {
		if ref.Kind == modelcfg.KindTransformer {
			blocks[ref.Index%2] = append(blocks[ref.Index%2], i)
		}
	}
	r := splitmix(seed ^ 0x9e3779b97f4a7c15)
	isHot := map[int]bool{}
	for k := 0; k < hot; k++ {
		half := blocks[k%2]
		j := k/2 + int(r.next()%uint64(len(half)-k/2)) // partial Fisher-Yates
		half[k/2], half[j] = half[j], half[k/2]
		isHot[half[k/2]] = true
		g.hot = append(g.hot, half[k/2])
	}
	for i := range g.layers {
		if !isHot[i] {
			g.cold = append(g.cold, i)
		}
	}
	// Gradient noise: unit normals by Box-Muller, scaled so AdamW's
	// normalised update moves weights by about the learning rate.
	g.pool = make([]float32, gradPoolLen)
	for i := 0; i < gradPoolLen; i += 2 {
		u1 := (float64(r.next()>>11) + 1) / (1 << 53)
		u2 := float64(r.next()>>11) / (1 << 53)
		rad := math.Sqrt(-2 * math.Log(u1))
		g.pool[i] = float32(rad * math.Cos(2*math.Pi*u2) * 1e-2)
		g.pool[i+1] = float32(rad * math.Sin(2*math.Pi*u2) * 1e-2)
	}
	return g
}

// updated returns the layer indices step updates.
func (g *loadGen) updated(step int) []int {
	if g.dense {
		out := make([]int, len(g.layers))
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := append([]int(nil), g.hot...)
	if g.coldEvery > 0 && step%g.coldEvery == 0 && len(g.cold) > 0 {
		r := splitmix(g.seed ^ uint64(step)*0xbf58476d1ce4e5b9)
		out = append(out, g.cold[r.next()%uint64(len(g.cold))])
	}
	return out
}

// grads returns step's gradients: a window of the noise pool per updated
// tensor, at an offset hashed from (seed, step, tensor).
func (g *loadGen) grads(step int) optim.GradMap {
	gm := optim.GradMap{}
	for _, li := range g.updated(step) {
		r := splitmix(g.seed ^ uint64(step)<<20 ^ uint64(li)*0x94d049bb133111eb)
		for k, name := range g.names[li] {
			n := g.sizes[li][k]
			off := int(r.next() % uint64(gradPoolLen-n))
			gm[name] = g.pool[off : off+n]
		}
	}
	return gm
}

// setupState builds the model and optimizer a round trains.
func setupState(cfg *modelcfg.Config, seed uint64) (*model.Model, *optim.AdamW, error) {
	m, err := model.NewInitialized(cfg, tensor.BF16, seed)
	if err != nil {
		return nil, nil, err
	}
	o, err := optim.NewAdamW(m, optim.NewLayerwiseLayout(cfg), optim.DefaultHyper())
	if err != nil {
		return nil, nil, err
	}
	return m, o, nil
}

// splitmix is a SplitMix64 stream: tiny, seedable and well mixed.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
