package main

import (
	"encoding/binary"
	"hash/maphash"
	"unsafe"

	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
)

// stateDigests hashes live model and optimizer state per layer: the
// layer's weight tensors as stored (BF16 bits) plus its optimizer groups'
// master weights and both moments. Digests are compared only within one
// process, so a per-process maphash seed suffices.
type stateDigests struct {
	seed maphash.Seed
	cfg  *modelcfg.Config
	// groups lists each layer's optimizer group indices.
	groups map[modelcfg.LayerRef][]int
}

func newStateDigests(cfg *modelcfg.Config, layout *optim.Layout) *stateDigests {
	d := &stateDigests{seed: maphash.MakeSeed(), cfg: cfg, groups: map[modelcfg.LayerRef][]int{}}
	for gi, g := range layout.Groups {
		if g.HasLayer {
			d.groups[g.Layer] = append(d.groups[g.Layer], gi)
		}
	}
	return d
}

// layer digests one layer of the live state.
func (d *stateDigests) layer(m *model.Model, o *optim.AdamW, ref modelcfg.LayerRef) uint64 {
	var h maphash.Hash
	h.SetSeed(d.seed)
	for _, t := range m.LayerTensors(ref) {
		h.WriteString(t.Name)
		h.Write(u16Bytes(t.U16Data()))
	}
	for _, gi := range d.groups[ref] {
		st := o.States[gi]
		h.Write(f32Bytes(st.Master))
		h.Write(f32Bytes(st.ExpAvg))
		h.Write(f32Bytes(st.ExpAvgSq))
	}
	return h.Sum64()
}

// layers digests the given layers (nil means all).
func (d *stateDigests) layers(m *model.Model, o *optim.AdamW, refs []modelcfg.LayerRef) map[modelcfg.LayerRef]uint64 {
	if refs == nil {
		refs = d.cfg.AllLayers()
	}
	out := make(map[modelcfg.LayerRef]uint64, len(refs))
	for _, ref := range refs {
		out[ref] = d.layer(m, o, ref)
	}
	return out
}

// whole folds every layer's digest and the optimizer step count into one.
func (d *stateDigests) whole(m *model.Model, o *optim.AdamW) uint64 {
	var h maphash.Hash
	h.SetSeed(d.seed)
	var buf [8]byte
	for _, ref := range d.cfg.AllLayers() {
		binary.LittleEndian.PutUint64(buf[:], d.layer(m, o, ref))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(o.StepCount))
	h.Write(buf[:])
	return h.Sum64()
}

func u16Bytes(s []uint16) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 2*len(s))
}

func f32Bytes(s []float32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
}
