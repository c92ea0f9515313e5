package main

import (
	"math"
	"sort"

	"llmtailor/internal/ckpt"
)

// layerStats collects the traced run's per-layer figures: per-call samples
// (timings in ms, per-call counts) and running totals for ratios. A nil
// layerStats ignores everything, so untraced rounds pay nothing.
type layerStats struct {
	samples map[string][]float64
	totals  map[string]float64
	// layers aggregates ckpt.LayerDelta rows per model layer, in model
	// layer order.
	layers     map[string]*layerBytes
	layerOrder []string
}

// layerBytes is one model layer's share of every save's bytes.
type layerBytes struct {
	Layer       string `json:"layer"`
	Saves       int    `json:"saves"`
	Rewritten   int    `json:"saves_rewritten"`
	BytesMoved  int64  `json:"bytes_moved"`
	BytesReused int64  `json:"bytes_reused"`
	BytesStored int64  `json:"bytes_stored"`
}

func newLayerStats() *layerStats {
	return &layerStats{samples: map[string][]float64{}, totals: map[string]float64{}, layers: map[string]*layerBytes{}}
}

func (s *layerStats) sample(name string, v float64) {
	if s != nil {
		s.samples[name] = append(s.samples[name], v)
	}
}

func (s *layerStats) add(name string, v float64) {
	if s != nil {
		s.totals[name] += v
	}
}

// addDelta folds one save's layer delta into the breakdown and the
// per-save rewritten/reused layer counts.
func (s *layerStats) addDelta(rows []ckpt.LayerDeltaRow) {
	if s == nil {
		return
	}
	var rewritten, reused int
	for _, row := range rows {
		lb := s.layers[row.Layer]
		if lb == nil {
			lb = &layerBytes{Layer: row.Layer}
			s.layers[row.Layer] = lb
			s.layerOrder = append(s.layerOrder, row.Layer)
		}
		lb.Saves++
		lb.BytesMoved += row.BytesMoved
		lb.BytesReused += row.BytesReused
		lb.BytesStored += row.BytesStored
		if row.Changed {
			lb.Rewritten++
			rewritten++
		} else {
			reused++
		}
	}
	s.sample("ckpt.layers_rewritten", float64(rewritten))
	s.sample("ckpt.layers_reused", float64(reused))
}

// breakdown lists the per-model-layer rows in model layer order.
func (s *layerStats) breakdown() []*layerBytes {
	out := make([]*layerBytes, 0, len(s.layerOrder))
	for _, l := range s.layerOrder {
		out = append(out, s.layers[l])
	}
	return out
}

// median of the named samples; 0 when the layer never ran.
func (s *layerStats) median(name string) float64 { return quantile(s.samples[name], 0.5) }

// mean of the named samples; 0 when the layer never ran.
func (s *layerStats) mean(name string) float64 {
	return safeDiv(sum(s.samples[name]), float64(len(s.samples[name])))
}

// max of the named samples; 0 when the layer never ran.
func (s *layerStats) max(name string) float64 {
	var m float64
	for _, x := range s.samples[name] {
		m = math.Max(m, x)
	}
	return m
}

// ratio of two totals; 0 when the denominator never moved.
func (s *layerStats) ratio(num, den string) float64 { return safeDiv(s.totals[num], s.totals[den]) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile interpolates linearly between order statistics; 0 for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
