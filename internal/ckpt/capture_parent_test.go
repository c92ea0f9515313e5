package ckpt

// The lazy saver's parent cache: an xor save encodes each delta against
// the payload the same saver published one save earlier instead of
// decoding the parent chain back out of the store. The cache may change
// only CPU time and bytes read — every tree must match the synchronous
// path's byte for byte, including when a cached parent has gone missing.

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

// slotEntry is one manifest entry's blob identity and codec outcome.
type slotEntry struct {
	digest  string
	codec   string
	parents []string
}

// slotEntries reads a dedup checkpoint's manifests keyed by payload slot.
func slotEntries(t *testing.T, b storage.Backend, dir string) map[string]slotEntry {
	t.Helper()
	out := map[string]slotEntry{}
	wm, err := ReadWeightManifest(b, dir+"/"+WeightManifestName)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range wm.Tensors {
		out[weightSlot(e.Name)] = slotEntry{e.Digest, e.Codec, e.Parents}
	}
	for _, r := range shardManifestRanks(b, dir) {
		sm, err := ReadShardManifest(b, dir+"/"+ShardManifestName(r))
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range sm.Groups {
			out[groupSlotKey(r, g.Index)] = slotEntry{g.Digest, g.Codec, g.Parents}
		}
	}
	return out
}

// saveThrough pushes one spec through a long-lived lazy saver and returns
// that save's own outcome; the saver stays usable for the next save.
func saveThrough(s *AsyncSaver, spec SaveSpec) error {
	s.mu.Lock()
	before := len(s.errs)
	s.mu.Unlock()
	if err := s.Save(spec); err != nil {
		return err
	}
	capErr := s.WaitCaptured()
	if err := s.Flush(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.errs) > before {
		return s.errs[len(s.errs)-1]
	}
	return capErr
}

func xorSpec(dir string, step int, m *model.Model, o *optim.AdamW, rebase int) SaveSpec {
	return SaveSpec{Dir: dir, Model: m, Optim: o, WorldSize: 2, Strategy: "full",
		Dedup: true, Codec: "xor", CodecRebase: rebase, LayerGens: o.LayerGens(),
		State: TrainerState{Step: step, Seed: 180}}
}

// One long-lived lazy xor saver runs past the re-base bound while a hot
// layer and a rotating layer change every save. Every committed tree and
// every stored blob must equal the synchronous sequence's, the cache must
// serve deltas, and its footprint must stay within SpoolBytes while
// running and drop to zero at Wait.
func TestLazyXorSaverMatchesSyncSaves(t *testing.T) {
	const rebase = 3
	const saves = rebase + 3
	cfg := modelcfg.Tiny()
	m, o := buildOptim(t, cfg, 180)
	refs := cfg.AllLayers()
	syncB, lazyB := storage.NewMem(), storage.NewMem()
	opts := CaptureOptions{Workers: 2, SpoolBytes: 64 << 10}
	s := NewLazyAsyncSaver(lazyB, 2, opts)
	var dirs []string
	for i := 1; i <= saves; i++ {
		if i > 1 {
			mutateLayer(t, m, o, refs[1], float32(i))
			mutateLayer(t, m, o, refs[2+i%(len(refs)-2)], float32(i))
		}
		spec := xorSpec(fmt.Sprintf("run/checkpoint-%d", i*10), i*10, m, o, rebase)
		if err := Save(syncB, spec); err != nil {
			t.Fatal(err)
		}
		if err := s.Save(spec); err != nil {
			t.Fatal(err)
		}
		if err := s.WaitCaptured(); err != nil {
			t.Fatal(err)
		}
		if held := s.CaptureStats().ParentBytesHeld; held > opts.SpoolBytes {
			t.Fatalf("save %d: parent cache holds %d bytes, over SpoolBytes %d", i, held, opts.SpoolBytes)
		}
		dirs = append(dirs, spec.Dir)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	st := s.CaptureStats()
	if st.ParentHits == 0 {
		t.Fatalf("no delta was served from the parent cache: %+v", st)
	}
	if st.ParentBytesHeld != 0 {
		t.Fatalf("parent cache still holds %d bytes after Wait", st.ParentBytesHeld)
	}
	t.Logf("parent cache: %d hits, %d misses", st.ParentHits, st.ParentMisses)

	deepest := 0
	for _, dir := range dirs {
		if treeDigest(t, lazyB, dir) != treeDigest(t, syncB, dir) {
			t.Fatalf("%s: lazy xor tree differs from the synchronous save", dir)
		}
		cs, err := ReadCodecStats(lazyB, dir)
		if err != nil {
			t.Fatal(err)
		}
		deepest = max(deepest, cs.DeepestChain)
	}
	if deepest != rebase {
		t.Fatalf("deepest xor chain %d, want the hot layer to reach the re-base bound %d", deepest, rebase)
	}
	syncStore, _ := storeFor(syncB, dirs[0])
	lazyStore, _ := storeFor(lazyB, dirs[0])
	blobs, _, _, err := syncStore.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, bl := range blobs {
		want, err := syncB.ReadFile(syncStore.Path(bl.Digest))
		if err != nil {
			t.Fatal(err)
		}
		got, err := lazyB.ReadFile(lazyStore.Path(bl.Digest))
		if err != nil || string(got) != string(want) {
			t.Fatalf("blob %s: lazy bytes differ from the synchronous save (err %v)", bl.Digest, err)
		}
	}
}

// A cached parent whose blob disappears between two saves must not be
// used: the slot lands as plane (as it does on the synchronous path),
// restore is bit-identical and no checkpoint is left with a missing parent.
func TestLazyXorMissingCachedParentLandsPlane(t *testing.T) {
	cfg := modelcfg.Tiny()
	m, o := buildOptim(t, cfg, 190)
	hot := cfg.AllLayers()[1]
	// Give the hot layer plane-compressible state (constant exponent bytes,
	// zero moments), so a slot demoted off xor can land as plane rather
	// than fall through to raw.
	for gi, g := range o.Layout.Groups {
		if g.HasLayer && g.Layer == hot {
			st := o.States[gi]
			for j := range st.Master {
				st.Master[j] = 1 + float32(j%8)/8
				st.ExpAvg[j], st.ExpAvgSq[j] = 0, 0
			}
		}
	}
	mutateLayer(t, m, o, hot, 0) // derive the layer's weights from the masters
	syncB, lazyB := storage.NewMem(), storage.NewMem()
	s := NewLazyAsyncSaver(lazyB, 1, CaptureOptions{})
	defer s.Wait()
	save := func(step int) SaveSpec {
		t.Helper()
		spec := xorSpec(fmt.Sprintf("run/checkpoint-%d", step), step, m, o, 0)
		if err := Save(syncB, spec); err != nil {
			t.Fatal(err)
		}
		if err := saveThrough(s, spec); err != nil {
			t.Fatal(err)
		}
		return spec
	}
	save(10)
	mutateLayer(t, m, o, hot, 1)
	save(20)

	// The hot layer's step-20 payloads are the cached parents of step 30.
	// Drop their blobs from both stores, as a sweep racing the saver might.
	lost := map[string]bool{}
	for slot, e := range slotEntries(t, lazyB, "run/checkpoint-20") {
		if e.codec != storage.CodecXORParent.String() {
			continue
		}
		lost[slot] = true
		for _, b := range []storage.Backend{syncB, lazyB} {
			store, err := storeFor(b, "run/checkpoint-20")
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Remove(e.digest); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(lost) == 0 {
		t.Fatal("setup: step 20 stored no xor deltas")
	}
	missesBefore := s.CaptureStats().ParentMisses

	mutateLayer(t, m, o, hot, 2)
	mc := m.Clone()
	oc := o.Clone(mc)
	save(30)

	// The negotiation matrix's "parent unusable" row: plane, else raw when
	// plane coding does not pay.
	entries := slotEntries(t, lazyB, "run/checkpoint-30")
	planes := 0
	for slot := range lost {
		e := entries[slot]
		if (e.codec != storage.CodecPlane.String() && e.codec != "") || len(e.parents) != 0 {
			t.Fatalf("slot %q over a missing parent landed as %q with parents %v, want plane", slot, e.codec, e.parents)
		}
		if e.codec == storage.CodecPlane.String() {
			planes++
		}
	}
	if planes == 0 {
		t.Fatal("no slot over a missing parent landed as plane")
	}
	if got := s.CaptureStats().ParentMisses - missesBefore; got < int64(len(lost)) {
		t.Fatalf("%d parent-cache misses for %d missing parents", got, len(lost))
	}
	if treeDigest(t, lazyB, "run/checkpoint-30") != treeDigest(t, syncB, "run/checkpoint-30") {
		t.Fatal("lazy tree over a missing parent differs from the synchronous save")
	}
	rm, ro, _, err := Restore(lazyB, "run/checkpoint-30", tensor.BF16)
	if err != nil {
		t.Fatal(err)
	}
	if !model.Equal(rm, mc) || !sameOptim(ro, oc) {
		t.Fatal("restore over a missing parent is not bit-identical")
	}
	health, err := ScanCodecs(lazyB, "run")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range health {
		if len(h.MissingParents) != 0 {
			t.Fatalf("%s: missing parents %v", h.Dir, h.MissingParents)
		}
	}
}

// headerCounter counts ranged opens per blob path: Meta reads a blob's
// container header through one OpenRange.
type headerCounter struct {
	storage.Backend
	mu    sync.Mutex
	reads map[string]int
}

func (c *headerCounter) OpenRange(name string, off, n int64) (io.ReadCloser, error) {
	if strings.Contains(name, "/objects/") {
		c.mu.Lock()
		c.reads[name]++
		c.mu.Unlock()
	}
	return c.Backend.OpenRange(name, off, n)
}

// A lazy save reads each container header of the xor chains it references
// at most once, however many times the write stage consults a chain (the
// journal's digest set, the reused blob's own entry, its parents' chain).
func TestLazySaveReadsEachChainHeaderOnce(t *testing.T) {
	cfg := modelcfg.Tiny()
	m, o := buildOptim(t, cfg, 200)
	hot := cfg.AllLayers()[1]
	b := &headerCounter{Backend: storage.NewMem(), reads: map[string]int{}}
	s := NewLazyAsyncSaver(b, 1, CaptureOptions{})
	defer s.Wait()
	for i := 1; i <= 5; i++ {
		if i > 1 {
			mutateLayer(t, m, o, hot, float32(i))
		}
		if err := saveThrough(s, xorSpec(fmt.Sprintf("run/checkpoint-%d", i*10), i*10, m, o, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing changes before the last save: every slot reuses its blob,
	// and the hot layer's blobs carry four-deep xor chains.
	b.mu.Lock()
	b.reads = map[string]int{}
	b.mu.Unlock()
	if err := saveThrough(s, xorSpec("run/checkpoint-60", 60, m, o, 0)); err != nil {
		t.Fatal(err)
	}
	cs, err := ReadCodecStats(b, "run/checkpoint-60")
	if err != nil {
		t.Fatal(err)
	}
	if cs.DeepestChain != 4 {
		t.Fatalf("deepest chain %d, want 4", cs.DeepestChain)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.reads) == 0 {
		t.Fatal("the save read no blob header")
	}
	for path, n := range b.reads {
		if n > 1 {
			t.Errorf("%s: header read %d times in one save", path, n)
		}
	}
}
