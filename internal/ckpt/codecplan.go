// Codec planning for dedup saves.
//
// A save that requests blob compression decides, per payload slot (a weight
// tensor by name, an optimizer group by rank and index), how the blob should
// be encoded: XOR against the previous generation's blob for the same slot
// when a usable parent exists, a self-contained byte-plane blob otherwise.
// The parent chain is read off the previous checkpoint's manifests — the
// same generation chain the ref index journals — and is re-based to a full
// plane blob whenever it would grow past the configured depth, so restore
// cost and GC pinning stay O(K) per slot.
//
// Planning is advisory: the store's size gate can still demote any payload
// to plane or raw, and the manifests record what actually happened.

package ckpt

import (
	"fmt"
	"strings"

	"llmtailor/internal/storage"
)

// DefaultCodecRebase is the default xor-parent chain depth bound: a slot
// whose chain would exceed it is re-based to a full plane blob.
const DefaultCodecRebase = 8

// codecPlan decides per-slot blob codecs for one dedup save. A nil plan
// means raw (the pre-codec behavior).
type codecPlan struct {
	mode   storage.BlobCodec // CodecPlane or CodecXORParent
	rebase int
	// cache, in xor mode, is the saver's verified-payload cache: every put
	// admits its payload and deltas against a cached parent when it can.
	cache *storage.ParentCache
	prev  map[string]prevSlot
}

// prevSlot is the previous generation's blob for a payload slot.
type prevSlot struct {
	digest  string
	parents []string
}

func weightSlot(name string) string       { return "w\x00" + name }
func groupSlotKey(rank, index int) string { return fmt.Sprintf("g\x00%d\x00%d", rank, index) }

// newCodecPlan builds the planner for a save publishing into finalDir.
// codec is the SaveSpec spelling: "" or "raw" disables planning (nil plan),
// "plane" encodes every payload standalone, "xor" / "xor-parent" deltas
// changed slots against the previous committed checkpoint in the run root.
// cache (may be nil) is handed to every xor-mode put; plane mode has no
// parents to serve, so it never sees the cache.
func newCodecPlan(b storage.Backend, finalDir, codec string, rebase int, cache *storage.ParentCache) (*codecPlan, error) {
	mode, err := storage.ParseBlobCodec(codec)
	if err != nil {
		return nil, fmt.Errorf("ckpt: save codec: %w", err)
	}
	switch mode {
	case storage.CodecRaw:
		return nil, nil
	case storage.CodecPlane, storage.CodecXORParent:
	default:
		return nil, fmt.Errorf("ckpt: save codec %q is not writable", codec)
	}
	if rebase <= 0 {
		rebase = DefaultCodecRebase
	}
	if rebase > storage.MaxParentDepth {
		rebase = storage.MaxParentDepth
	}
	p := &codecPlan{mode: mode, rebase: rebase, prev: map[string]prevSlot{}}
	if mode == storage.CodecXORParent {
		p.cache = cache
		if prevDir := previousForSave(b, finalDir); prevDir != "" {
			p.loadPrev(b, prevDir)
		}
	}
	return p, nil
}

// previousForSave resolves the parent generation of a save publishing into
// finalDir. During a normal save finalDir is not committed yet, so the
// parent is the newest committed checkpoint under the run root; when
// finalDir is being re-saved (a retry over a committed dir), it is the
// checkpoint preceding it — never finalDir itself, whose manifests the
// save is about to replace.
func previousForSave(b storage.Backend, finalDir string) string {
	if prev, err := PreviousCheckpoint(b, finalDir); err == nil {
		return prev
	}
	runRoot := ""
	if i := strings.LastIndexByte(finalDir, '/'); i >= 0 {
		runRoot = finalDir[:i]
	}
	dirs, err := List(b, runRoot)
	if err != nil || len(dirs) == 0 {
		return ""
	}
	return dirs[len(dirs)-1]
}

// loadPrev indexes the previous checkpoint's manifests by slot. Best
// effort: a plain (non-dedup) or unreadable previous checkpoint simply
// yields no parents, demoting this save to plane blobs.
func (p *codecPlan) loadPrev(b storage.Backend, dir string) {
	if wm, err := ReadWeightManifest(b, dir+"/"+WeightManifestName); err == nil {
		for _, e := range wm.Tensors {
			p.prev[weightSlot(e.Name)] = prevSlot{digest: e.Digest, parents: e.Parents}
		}
	}
	for _, r := range shardManifestRanks(b, dir) {
		if sm, err := ReadShardManifest(b, dir+"/"+ShardManifestName(r)); err == nil {
			for _, g := range sm.Groups {
				p.prev[groupSlotKey(sm.Rank, g.Index)] = prevSlot{digest: g.Digest, parents: g.Parents}
			}
		}
	}
}

// optsFor plans one payload's put: the options to request and the full
// ancestor chain (direct parent first) an xor put would make the new blob
// depend on. A slot with no previous generation, an unchanged digest, or a
// chain at the re-base bound plans as plane.
func (p *codecPlan) optsFor(slot, digest string, width int) (storage.BlobPutOptions, []string) {
	opts := storage.BlobPutOptions{Codec: storage.CodecPlane, Width: width, Cache: p.cache}
	if p.mode != storage.CodecXORParent {
		return opts, nil
	}
	ps, ok := p.prev[slot]
	if !ok || !storage.ValidDigest(ps.digest) || ps.digest == digest {
		return opts, nil
	}
	chain := append([]string{ps.digest}, ps.parents...)
	if len(chain) > p.rebase {
		return opts, nil // re-base: chain depth stays O(K)
	}
	opts.Codec = storage.CodecXORParent
	opts.Parent = ps.digest
	return opts, chain
}

// chainMemo reads blob headers for one save, each at most once: payloads
// whose xor chains share ancestors, and the repeated walks a save makes of
// one chain (journal set, then manifest entry), reuse the first read.
// Only successful reads are remembered, so a blob the save publishes
// after a failed lookup is read fresh. A memo must not outlive its save.
type chainMemo struct {
	store storage.CAS
	metas map[string]storage.BlobMeta
}

func newChainMemo(store storage.CAS) *chainMemo {
	return &chainMemo{store: store, metas: map[string]storage.BlobMeta{}}
}

// meta is store.Meta, memoized.
func (m *chainMemo) meta(digest string) (storage.BlobMeta, error) {
	if meta, ok := m.metas[digest]; ok {
		return meta, nil
	}
	meta, err := m.store.Meta(digest)
	if err == nil {
		m.metas[digest] = meta
	}
	return meta, err
}

// chain returns the xor-parent ancestor chain of a stored blob (direct
// parent first) by walking container headers. Raw and plane blobs have an
// empty chain.
func (m *chainMemo) chain(digest string) ([]string, error) {
	var chain []string
	cur := digest
	for i := 0; i <= storage.MaxParentDepth; i++ {
		meta, err := m.meta(cur)
		if err != nil {
			return nil, err
		}
		if meta.Codec != storage.CodecXORParent {
			return chain, nil
		}
		chain = append(chain, meta.Parent)
		cur = meta.Parent
	}
	return nil, fmt.Errorf("ckpt: blob %s: xor-parent chain exceeds depth bound %d", digest, storage.MaxParentDepth)
}

// CodecStats summarises how one content-addressed checkpoint's payloads
// are encoded in the blob store: entry counts per codec, payload versus
// on-disk bytes, and the deepest xor-parent ancestor chain.
type CodecStats struct {
	// Entries counts manifest entries per codec name ("raw" for entries
	// stored verbatim).
	Entries map[string]int
	// RawBytes is the total (uncompressed) payload size; StoredBytes the
	// on-disk footprint after encoding.
	RawBytes    int64
	StoredBytes int64
	// DeepestChain is the longest xor-parent ancestor chain any entry
	// carries, and DeepestSlot names that entry.
	DeepestChain int
	DeepestSlot  string
}

// walkCodecEntries visits every manifest entry of a dedup checkpoint with
// its codec fields ("" codec = raw).
func walkCodecEntries(b storage.Backend, dir string, note func(slot, codec string, size, stored int64, parents []string)) error {
	if !IsDedup(b, dir) {
		return fmt.Errorf("ckpt: %s is not content-addressed (no %s)", dir, WeightManifestName)
	}
	wm, err := ReadWeightManifest(b, dir+"/"+WeightManifestName)
	if err != nil {
		return err
	}
	for _, e := range wm.Tensors {
		note("tensor "+e.Name, e.Codec, e.Size, e.Stored, e.Parents)
	}
	for _, r := range shardManifestRanks(b, dir) {
		sm, err := ReadShardManifest(b, dir+"/"+ShardManifestName(r))
		if err != nil {
			return err
		}
		for _, g := range sm.Groups {
			note(fmt.Sprintf("rank %d group %d", sm.Rank, g.Index), g.Codec, g.Size, g.Stored, g.Parents)
		}
	}
	return nil
}

// ReadCodecStats computes CodecStats from a dedup checkpoint's manifests.
func ReadCodecStats(b storage.Backend, dir string) (*CodecStats, error) {
	cs := &CodecStats{Entries: map[string]int{}}
	err := walkCodecEntries(b, dir, func(slot, codec string, size, stored int64, parents []string) {
		if codec == "" {
			codec, stored = "raw", size
		}
		cs.Entries[codec]++
		cs.RawBytes += size
		cs.StoredBytes += stored
		if len(parents) > cs.DeepestChain {
			cs.DeepestChain = len(parents)
			cs.DeepestSlot = slot
		}
	})
	if err != nil {
		return nil, err
	}
	return cs, nil
}

// CodecHealth is one dedup checkpoint's blob-codec health in a doctor
// scan: the codec breakdown plus any xor parents the manifests pin that
// the blob store no longer holds (restoring those entries would fail).
type CodecHealth struct {
	Dir   string
	Stats *CodecStats
	// MissingParents lists pinned ancestor digests absent from the store,
	// each prefixed with the slot that depends on it.
	MissingParents []string
}

// ScanCodecs audits blob-codec health across every committed dedup
// checkpoint under a run root. Checkpoints whose manifests other scans
// already flag as unreadable are skipped — this scan owns only the codec
// layer.
func ScanCodecs(b storage.Backend, runRoot string) ([]CodecHealth, error) {
	dirs, err := List(b, runRoot)
	if err != nil {
		return nil, err
	}
	var out []CodecHealth
	for _, dir := range dirs {
		if !IsDedup(b, dir) {
			continue
		}
		cs, err := ReadCodecStats(b, dir)
		if err != nil {
			continue
		}
		store, err := storeFor(b, dir)
		if err != nil {
			return nil, err
		}
		h := CodecHealth{Dir: dir, Stats: cs}
		checked := map[string]bool{}
		_ = walkCodecEntries(b, dir, func(slot, codec string, size, stored int64, parents []string) {
			for _, pd := range parents {
				if checked[pd] {
					continue
				}
				checked[pd] = true
				if !store.Has(pd) {
					h.MissingParents = append(h.MissingParents, slot+" -> "+pd)
				}
			}
		})
		out = append(out, h)
	}
	return out, nil
}

// codecEntryMeta converts a put's outcome into the manifest entry's codec
// fields. planned is the chain optsFor computed; it is reused when the put
// landed on the planned parent, and re-derived from container headers when
// the slot dedup-hit an existing blob with a different lineage.
func codecEntryMeta(memo *chainMemo, res storage.PutResult, planned []string) (codec string, stored int64, parents []string, err error) {
	switch res.Codec {
	case storage.CodecRaw:
		return "", 0, nil, nil
	case storage.CodecXORParent:
		if len(planned) > 0 && planned[0] == res.Parent {
			parents = planned
		} else {
			rest, err := memo.chain(res.Parent)
			if err != nil {
				return "", 0, nil, err
			}
			parents = append([]string{res.Parent}, rest...)
		}
		return res.Codec.String(), res.StoredBytes, parents, nil
	default: // plane, stored
		return res.Codec.String(), res.StoredBytes, nil, nil
	}
}
