// Content-addressed ("dedup") checkpoints.
//
// A dedup save stores every weight-tensor and optimizer-group payload as a
// blob in the run root's `objects/` store (internal/storage.BlobStore) and
// writes small manifests referencing the blobs by SHA-256 digest in place
// of the LTSF/LTOS payload containers. Payloads unchanged since any
// earlier save cost zero payload bytes — the incremental-snapshot
// observation that most tensor bytes are identical between successive
// training checkpoints, applied at the paper's layer-wise granularity.
//
// Ordering makes the commit protocol carry over unchanged: blobs are
// published (atomic rename, idempotent) before the checkpoint's COMMITTED
// marker seals the manifest directory, so a committed manifest can only
// reference durable blobs. A crash mid-save leaves an orphaned staging
// directory plus possibly unreferenced blobs — garbage that Repair and GC
// remove, never a committed checkpoint with dangling references. GC
// derives refcounts from every committed (and sealed-but-unpublished)
// manifest and sweeps only blobs with zero references.

package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strings"

	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
	"llmtailor/internal/zero"
)

// ObjectsDirName is the blob store's directory name under a run root.
const ObjectsDirName = "objects"

// objectsPath returns the blob store root for a run root.
func objectsPath(runRoot string) string {
	if runRoot == "" {
		return ObjectsDirName
	}
	return runRoot + "/" + ObjectsDirName
}

// ObjectsRoot returns the blob store root serving a checkpoint directory:
// the `objects/` sibling in its run root. A single-segment dir ("merged")
// has the backend root as its run root, mirroring LatestPointerPath.
func ObjectsRoot(dir string) string {
	if i := strings.LastIndexByte(dir, '/'); i >= 0 {
		return dir[:i] + "/" + ObjectsDirName
	}
	return ObjectsDirName
}

// storeFor opens the content-addressed store serving a checkpoint
// directory — a plain blob store, or the digest-sharded layout when the
// objects root declares one (storage.OpenCAS).
func storeFor(b storage.Backend, dir string) (storage.CAS, error) {
	return storage.OpenCAS(b, ObjectsRoot(dir))
}

// IsDedup reports whether a checkpoint directory is stored content-
// addressed (weight manifest present, no weight container).
func IsDedup(b storage.Backend, dir string) bool {
	return b.Exists(dir+"/"+WeightManifestName) && !b.Exists(dir+"/model.ltsf")
}

// hashStream computes one payload's content digest and CRC by streaming
// encode() through the hashes only — no storage I/O. Saves run this over
// every payload first, so the full digest set can be journaled in the ref
// index before a single blob is published.
func hashStream(size int64, encode func(io.Writer) (int64, error)) (digest string, crc uint32, err error) {
	c := crc32.NewIEEE()
	sum := sha256.New()
	n, err := encode(io.MultiWriter(c, sum))
	if err != nil {
		return "", 0, err
	}
	if n != size {
		return "", 0, fmt.Errorf("ckpt: payload encoded %d bytes, expected %d", n, size)
	}
	return hex.EncodeToString(sum.Sum(nil)), c.Sum32(), nil
}

// encodeGroupPayload streams one group shard's payload (master + exp_avg +
// exp_avg_sq, FP32 LE) — exactly the bytes ShardFileWriter.WriteGroup
// spools.
func encodeGroupPayload(w io.Writer, buf []byte, s *zero.GroupShard) (int64, error) {
	var n int64
	for _, sec := range [][]float32{s.Master, s.ExpAvg, s.ExpAvgSq} {
		k, err := writeF32s(w, buf, sec)
		n += k
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// dedupPayload is one payload of a dedup save: its hashed identity plus
// the encoder that can replay its exact bytes into the store, and — when a
// codec plan is active — the planned put options and the manifest-entry
// patch that records how the blob actually landed.
type dedupPayload struct {
	digest string
	crc    uint32
	size   int64
	encode func(io.Writer) (int64, error)

	opts    storage.BlobPutOptions
	planned []string
	apply   func(codec string, stored int64, parents []string)
}

// writeDedupPayloads is the dedup half of Save: weight and group payloads
// go to the blob store on the base backend (published before the commit),
// and the manifests are staged through the transaction's recording backend
// like every other checkpoint file. finalDir names the checkpoint's
// eventual (published) path — the blob store location derives from it, not
// from the staging directory.
//
// Ordering is load-bearing: every payload is hashed first (metadata-only
// storage I/O), the full digest set — including every xor-parent ancestor a
// planned or existing delta blob depends on — is journaled in the ref
// index, and only then are missing blobs published — so a concurrent or
// later sweep always finds a record pinning a blob (and its decode
// ancestry) before the blob exists. The returned
// generation is recorded in the checkpoint's manifest.json (ref_gen),
// binding the published directory to its journal record.
func writeDedupPayloads(base, sb storage.Backend, stagingDir, finalDir string,
	modelName string, weights []*tensor.Tensor,
	metas []ShardGroupMeta, byRank [][]*zero.GroupShard, worldSize, step int,
	layout optim.LayoutKind, cplan *codecPlan) (int64, error) {

	store, err := storeFor(base, finalDir)
	if err != nil {
		return 0, err
	}
	memo := newChainMemo(store)
	buf := make([]byte, storage.ChunkOrDefault(0))

	// Phase 1: hash everything; build manifests and the digest set. With a
	// codec plan active, each payload also gets its planned put options, and
	// the journal set is extended with every planned ancestor — the record
	// must pin a parent before a delta depending on it can exist.
	var payloads []dedupPayload
	var digests []string
	hash := func(slot string, width int, size int64, encode func(io.Writer) (int64, error)) (string, uint32, error) {
		digest, crc, err := hashStream(size, encode)
		if err != nil {
			return "", 0, err
		}
		p := dedupPayload{digest: digest, crc: crc, size: size, encode: encode}
		if cplan != nil {
			p.opts, p.planned = cplan.optsFor(slot, digest, width)
			digests = append(digests, p.planned...)
		}
		// A blob that already exists may carry an xor lineage this save did
		// not plan (written by an earlier save from another parent, or by a
		// codec-enabled save when this one runs raw); the record must pin
		// those actual ancestors too, or retiring the blob's original
		// record could orphan them under our feet.
		if ch, err := memo.chain(digest); err == nil {
			digests = append(digests, ch...)
		}
		payloads = append(payloads, p)
		digests = append(digests, digest)
		return digest, crc, nil
	}
	wm := &WeightManifest{Version: FormatVersion, Model: modelName}
	for _, t := range weights {
		t := t
		size := int64(t.Bytes())
		digest, crc, err := hash(weightSlot(t.Name), t.DType.Size(), size, func(w io.Writer) (int64, error) {
			return t.EncodeTo(w, buf)
		})
		if err != nil {
			return 0, fmt.Errorf("ckpt: dedup tensor %q: %w", t.Name, err)
		}
		wm.Tensors = append(wm.Tensors, WeightEntry{
			Name: t.Name, DType: t.DType.String(),
			Shape: append([]int(nil), t.Shape...),
			Size:  size, CRC32: crc, Digest: digest,
		})
		idx := len(wm.Tensors) - 1
		payloads[len(payloads)-1].apply = func(codec string, stored int64, parents []string) {
			e := &wm.Tensors[idx]
			e.Codec, e.Stored, e.Parents = codec, stored, parents
		}
	}
	sms := make([]*ShardManifest, worldSize)
	for r := 0; r < worldSize; r++ {
		sm := &ShardManifest{
			Version: FormatVersion, Rank: r, WorldSize: worldSize,
			Step: step, Layout: layout.String(),
		}
		for i, s := range byRank[r] {
			m := metas[i]
			size := s.Numel() * 12
			shard := s
			// Group payloads are FP32 triples, so the plane width is 4.
			digest, crc, err := hash(groupSlotKey(r, m.Index), 4, size, func(w io.Writer) (int64, error) {
				return encodeGroupPayload(w, buf, shard)
			})
			if err != nil {
				return 0, fmt.Errorf("ckpt: dedup rank %d group %d: %w", r, m.Index, err)
			}
			sm.Groups = append(sm.Groups, ShardGroupEntry{
				Index: m.Index, Numel: m.Numel, ShardLen: s.Numel(),
				NoDecay: m.NoDecay, Layer: m.Layer,
				Size: size, CRC32: crc, Digest: digest,
			})
			idx := len(sm.Groups) - 1
			payloads[len(payloads)-1].apply = func(codec string, stored int64, parents []string) {
				g := &sm.Groups[idx]
				g.Codec, g.Stored, g.Parents = codec, stored, parents
			}
		}
		sms[r] = sm
	}

	// Phase 2: journal the reference record, then publish missing blobs.
	gen, err := appendRefRecord(base, finalDir, step, digests)
	if err != nil {
		return 0, err
	}
	for i := range payloads {
		// A zero-valued opts (no plan) is a plain raw put; either way the
		// manifest entry records how the blob actually landed — a dedup hit
		// may resolve to a container another save stored.
		p := &payloads[i]
		res, err := store.PutStreamOpts(p.digest, p.opts, p.encode)
		if err != nil {
			return 0, fmt.Errorf("ckpt: dedup blob %s: %w", p.digest, err)
		}
		codec, stored, parents, err := codecEntryMeta(memo, res, p.planned)
		if err != nil {
			return 0, fmt.Errorf("ckpt: dedup blob %s: %w", p.digest, err)
		}
		p.apply(codec, stored, parents)
	}

	// Phase 3: stage the manifests through the recording backend.
	if err := WriteWeightManifest(sb, stagingDir+"/"+WeightManifestName, wm); err != nil {
		return 0, err
	}
	for r, sm := range sms {
		if err := WriteShardManifest(sb, stagingDir+"/"+ShardManifestName(r), sm); err != nil {
			return 0, err
		}
	}
	return gen, nil
}

// DedupWeights provides the same lazy per-tensor access over a dedup
// checkpoint that LTSFReader provides over a plain one: tensors are read
// (and CRC-verified) blob by blob, raw extents open directly on the blob
// files, so resume and merge work transparently against either layout.
type DedupWeights struct {
	store storage.CAS
	man   *WeightManifest
	// index maps tensor name to its manifest entry position, so per-tensor
	// lookups cost what the LTSF header map costs, not a slice scan.
	index map[string]int
}

// OpenDedupWeights opens the weight manifest of a dedup checkpoint.
func OpenDedupWeights(b storage.Backend, dir string) (*DedupWeights, error) {
	man, err := ReadWeightManifest(b, dir+"/"+WeightManifestName)
	if err != nil {
		return nil, err
	}
	index := make(map[string]int, len(man.Tensors))
	for i, e := range man.Tensors {
		index[e.Name] = i
	}
	store, err := storeFor(b, dir)
	if err != nil {
		return nil, err
	}
	return &DedupWeights{store: store, man: man, index: index}, nil
}

// entry returns the named tensor's manifest entry via the index.
func (r *DedupWeights) entry(name string) (WeightEntry, bool) {
	i, ok := r.index[name]
	if !ok {
		return WeightEntry{}, false
	}
	return r.man.Tensors[i], true
}

// Model returns the model name recorded at save time.
func (r *DedupWeights) Model() string { return r.man.Model }

// Names returns the sorted tensor names present in the manifest.
func (r *DedupWeights) Names() []string {
	out := make([]string, 0, len(r.man.Tensors))
	for _, e := range r.man.Tensors {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

// Has reports whether the manifest references the named tensor.
func (r *DedupWeights) Has(name string) bool {
	_, ok := r.entry(name)
	return ok
}

// PayloadSize returns the stored byte size of the named tensor's payload.
func (r *DedupWeights) PayloadSize(name string) (int64, bool) {
	e, ok := r.entry(name)
	if !ok {
		return 0, false
	}
	return e.Size, true
}

// ReadTensor reads the named tensor's blob, verifies its CRC and returns
// the decoded tensor.
func (r *DedupWeights) ReadTensor(name string) (*tensor.Tensor, error) {
	e, ok := r.entry(name)
	if !ok {
		return nil, fmt.Errorf("ckpt: dedup weights: no tensor %q", name)
	}
	dt, err := tensor.ParseDType(e.DType)
	if err != nil {
		return nil, fmt.Errorf("ckpt: dedup weights: tensor %q: %w", name, err)
	}
	rc, err := r.store.OpenRange(e.Digest, 0, e.Size)
	if err != nil {
		return nil, fmt.Errorf("ckpt: dedup weights: tensor %q: %w", name, err)
	}
	buf := make([]byte, e.Size)
	_, err = io.ReadFull(rc, buf)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("ckpt: dedup weights: tensor %q blob %s: %w", name, e.Digest, err)
	}
	if got := crc32.ChecksumIEEE(buf); got != e.CRC32 {
		return nil, fmt.Errorf("ckpt: dedup weights: tensor %q: CRC mismatch (%08x != %08x)", name, got, e.CRC32)
	}
	t := tensor.New(name, dt, e.Shape...)
	if err := t.Decode(buf); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadAll reads every tensor in name order.
func (r *DedupWeights) ReadAll() ([]*tensor.Tensor, error) {
	names := r.Names()
	out := make([]*tensor.Tensor, 0, len(names))
	for _, n := range names {
		t, err := r.ReadTensor(n)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// RawTensor returns the named tensor's blob extent and recorded CRC.
func (r *DedupWeights) RawTensor(name string) (RawTensor, error) {
	e, ok := r.entry(name)
	if !ok {
		return RawTensor{}, fmt.Errorf("ckpt: dedup weights: no tensor %q", name)
	}
	return RawTensor{
		Name:  name,
		DType: e.DType,
		Shape: append([]int(nil), e.Shape...),
		Size:  e.Size,
		CRC32: e.CRC32,
		// A blob holds exactly the payload, so the extent starts at 0.
		Offset: 0,
	}, nil
}

// OpenRaw opens a streaming reader over the named tensor's blob.
func (r *DedupWeights) OpenRaw(name string) (RawTensor, io.ReadCloser, error) {
	rt, err := r.RawTensor(name)
	if err != nil {
		return RawTensor{}, nil, err
	}
	e, _ := r.entry(name)
	rc, err := r.store.OpenRange(e.Digest, 0, e.Size)
	if err != nil {
		return RawTensor{}, nil, fmt.Errorf("ckpt: dedup weights: open blob for %q: %w", name, err)
	}
	return rt, rc, nil
}

// RawEligible reports whether the named tensor can be raw-copied into an
// output of the given dtype.
func (r *DedupWeights) RawEligible(name string, out tensor.DType) bool {
	e, ok := r.entry(name)
	if !ok {
		return false
	}
	dt, err := tensor.ParseDType(e.DType)
	return err == nil && dt == out
}

// readDedupShardFile rebuilds one rank's decoded ShardFile from its shard
// manifest and group blobs — the dedup counterpart of ReadShardFile, with
// the same whole-groups-only access (no lazy optimizer loading, §5.4).
func readDedupShardFile(b storage.Backend, dir string, rank int) (*ShardFile, error) {
	name := dir + "/" + ShardManifestName(rank)
	man, err := ReadShardManifest(b, name)
	if err != nil {
		return nil, err
	}
	if man.Rank != rank {
		return nil, fmt.Errorf("ckpt: %s: manifest is for rank %d", name, man.Rank)
	}
	layout, err := optim.ParseLayoutKind(man.Layout)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", name, err)
	}
	store, err := storeFor(b, dir)
	if err != nil {
		return nil, err
	}
	f := &ShardFile{
		Rank: man.Rank, WorldSize: man.WorldSize, Step: man.Step,
		Layout: layout,
		Shards: make([]*zero.GroupShard, len(man.Groups)),
	}
	if size, err := b.Stat(name); err == nil {
		f.FileBytes = size
	}
	for i, g := range man.Groups {
		rc, err := store.OpenRange(g.Digest, 0, g.Size)
		if err != nil {
			return nil, fmt.Errorf("ckpt: %s: group %d blob: %w", name, g.Index, err)
		}
		seg := make([]byte, g.Size)
		_, err = io.ReadFull(rc, seg)
		if cerr := rc.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("ckpt: %s: group %d blob %s: %w", name, g.Index, g.Digest, err)
		}
		if got := crc32.ChecksumIEEE(seg); got != g.CRC32 {
			return nil, fmt.Errorf("ckpt: %s: group %d CRC mismatch", name, g.Index)
		}
		meta := g.Meta()
		meta.Offsets = [2]int64{0, g.Size}
		f.Meta = append(f.Meta, meta)
		f.FileBytes += g.Size
		f.Shards[i] = &zero.GroupShard{
			GroupIndex: g.Index,
			Rank:       man.Rank,
			Master:     decodeF32(seg, g.ShardLen),
			ExpAvg:     decodeF32(seg[g.ShardLen*4:], g.ShardLen),
			ExpAvgSq:   decodeF32(seg[g.ShardLen*8:], g.ShardLen),
		}
	}
	return f, nil
}

// MaterializeWeights writes a full LTSF weight container at dst from a
// dedup checkpoint's manifest, splicing blob payloads in manifest (=
// payload) order with carried-forward CRCs. The output is byte-identical
// to what a plain Save of the same state would have written; every spliced
// payload is re-hashed on the way through and checked against the
// manifest's digest, so a corrupt blob fails the materialization instead
// of poisoning the container.
func MaterializeWeights(b storage.Backend, dir, dst string, chunkBytes int) error {
	man, err := ReadWeightManifest(b, dir+"/"+WeightManifestName)
	if err != nil {
		return err
	}
	store, err := storeFor(b, dir)
	if err != nil {
		return err
	}
	w, err := NewLTSFWriter(b, dst, man.Model, chunkBytes)
	if err != nil {
		return err
	}
	defer w.Abort()
	w.RecordDigests()
	for _, e := range man.Tensors {
		rc, err := store.OpenRange(e.Digest, 0, e.Size)
		if err != nil {
			return fmt.Errorf("ckpt: materialize %s: tensor %q: %w", dir, e.Name, err)
		}
		err = w.AppendRaw(RawTensor{
			Name: e.Name, DType: e.DType, Shape: e.Shape,
			Size: e.Size, CRC32: e.CRC32,
		}, rc)
		rc.Close()
		if err != nil {
			return fmt.Errorf("ckpt: materialize %s: %w", dir, err)
		}
		if got, _ := w.Digest(e.Name); got != e.Digest {
			return fmt.Errorf("ckpt: materialize %s: tensor %q blob content hashes to %s, manifest says %s",
				dir, e.Name, got, e.Digest)
		}
	}
	return w.Close()
}

// MaterializeShardFile writes one rank's full LTOS container at dst from a
// dedup checkpoint's shard manifest, byte-identical to the plain save's,
// verifying each group blob's digest as it streams through.
func MaterializeShardFile(b storage.Backend, dir string, rank int, dst string, chunkBytes int) error {
	man, err := ReadShardManifest(b, dir+"/"+ShardManifestName(rank))
	if err != nil {
		return err
	}
	layout, err := optim.ParseLayoutKind(man.Layout)
	if err != nil {
		return err
	}
	store, err := storeFor(b, dir)
	if err != nil {
		return err
	}
	w, err := NewShardFileWriter(b, dst, man.Rank, man.WorldSize, man.Step, layout, chunkBytes)
	if err != nil {
		return err
	}
	defer w.Abort()
	for _, g := range man.Groups {
		rc, err := store.OpenRange(g.Digest, 0, g.Size)
		if err != nil {
			return fmt.Errorf("ckpt: materialize %s rank %d: group %d: %w", dir, rank, g.Index, err)
		}
		sum := sha256.New()
		err = w.AppendRawGroup(g.Meta(), g.Size, io.TeeReader(rc, sum))
		rc.Close()
		if err != nil {
			return fmt.Errorf("ckpt: materialize %s rank %d: %w", dir, rank, err)
		}
		if got := hex.EncodeToString(sum.Sum(nil)); got != g.Digest {
			return fmt.Errorf("ckpt: materialize %s rank %d: group %d blob content hashes to %s, manifest says %s",
				dir, rank, g.Index, got, g.Digest)
		}
	}
	return w.Close()
}

// shardManifestRanks lists the ranks that have shard manifests in a
// checkpoint directory.
func shardManifestRanks(b storage.Backend, dir string) []int {
	entries, err := b.List(dir + "/zero")
	if err != nil {
		return nil
	}
	var ranks []int
	for _, e := range entries {
		var r int
		if _, err := fmt.Sscanf(e, "rank_%d_optim_states.ltom", &r); err == nil && strings.HasSuffix(e, ".ltom") {
			ranks = append(ranks, r)
		}
	}
	sort.Ints(ranks)
	return ranks
}

// verifyDedupRefs checks that every blob a dedup checkpoint references
// exists with the manifest's exact payload size — the cheap half of
// reference integrity Scan runs on committed dedup directories (content
// digests are verified by readers and materialization). Sizes compare
// against the blob's decoded (raw) size, so compressed containers verify
// the same as raw blobs; xor entries additionally require every listed
// ancestor to be present, because decoding depends on the whole chain.
func verifyDedupRefs(b storage.Backend, dir string) error {
	if !b.Exists(dir + "/" + WeightManifestName) {
		return nil // plain checkpoint: nothing content-addressed to check
	}
	store, err := storeFor(b, dir)
	if err != nil {
		return err
	}
	check := func(what, digest string, size int64, parents []string) error {
		meta, err := store.Meta(digest)
		if err != nil {
			return fmt.Errorf("ckpt: %s: %s references missing blob %s: %w", dir, what, digest, err)
		}
		if meta.RawSize != size {
			return fmt.Errorf("ckpt: %s: %s blob %s holds %d payload bytes, manifest says %d", dir, what, digest, meta.RawSize, size)
		}
		for _, pd := range parents {
			if !store.Has(pd) {
				return fmt.Errorf("ckpt: %s: %s blob %s: xor parent %s missing", dir, what, digest, pd)
			}
		}
		return nil
	}
	wm, err := ReadWeightManifest(b, dir+"/"+WeightManifestName)
	if err != nil {
		return err
	}
	for _, e := range wm.Tensors {
		if err := check("tensor "+e.Name, e.Digest, e.Size, e.Parents); err != nil {
			return err
		}
	}
	for _, r := range shardManifestRanks(b, dir) {
		sm, err := ReadShardManifest(b, dir+"/"+ShardManifestName(r))
		if err != nil {
			return err
		}
		for _, g := range sm.Groups {
			if err := check(fmt.Sprintf("rank %d group %d", r, g.Index), g.Digest, g.Size, g.Parents); err != nil {
				return err
			}
		}
	}
	return nil
}

// GCReport records what a blob garbage collection did.
type GCReport struct {
	// Mode is "full" (manifest mark-and-sweep plus index validation) or
	// "generational" (journal-driven incremental sweep).
	Mode string
	// DryRun is set when nothing was actually removed.
	DryRun bool
	// Referenced is the number of distinct digests pinned by manifests
	// (full mode) or by the live index and manifest fallbacks
	// (generational mode).
	Referenced int
	// Kept is the number of examined blobs retained.
	Kept int
	// Examined is the number of stored blobs the sweep looked at — every
	// blob for a full sweep, only the retired generations' candidates for
	// a generational one.
	Examined int
	// RemovedBlobs lists swept unreferenced blob digests.
	RemovedBlobs []string
	// RemovedStaging lists deleted blob-staging residue paths.
	RemovedStaging []string
	// BytesFreed totals the removed blobs' sizes.
	BytesFreed int64
	// IndexRecords is the number of journal records considered.
	IndexRecords int
	// IndexRetired lists superseded record files removed.
	IndexRetired []string
	// IndexRepaired lists records rewritten or added from manifests
	// (full mode's index validation).
	IndexRepaired []string
	// IndexStale counts records left pinned that match no published
	// checkpoint (in-flight saves or crash residue; Repair judges them).
	IndexStale int
}

// GC is the full mark-and-sweep — now the verification and repair path.
// Refcounts are re-derived from every manifest under the run root (the
// ground truth), unioned with the journal's pins (an in-flight save's
// record precedes its blobs and manifests, and must protect them), and the
// whole store is swept against the union. Superseded journal records are
// retired with their exclusive blobs, divergent or missing records of
// sealed directories are rewritten from the manifests, and orphaned
// records are counted stale but left pinned — an in-flight save looks
// exactly like one, so only quiescent Repair removes them. The safety
// invariant — a referenced blob is never collected — holds through any
// interruption: references are gathered before the first removal, removals
// are per-blob, and a crashed sweep only leaves extra garbage for the next
// run.
func GC(b storage.Backend, runRoot string) (*GCReport, error) {
	dirs, err := collectDirRefs(b, runRoot)
	if err != nil {
		return nil, err
	}
	refs := map[string]int{}
	for _, d := range dirs {
		for _, dg := range d.Digests {
			refs[dg]++
		}
	}
	rep := &GCReport{Mode: "full", Referenced: len(refs)}
	store, err := storage.OpenCAS(b, objectsPath(runRoot))
	if err != nil {
		return nil, err
	}
	if !b.Exists(store.Root()) {
		return rep, nil
	}
	audit, err := auditRefs(b, runRoot, dirs)
	if err != nil {
		return nil, err
	}
	rep.IndexRecords = len(audit.records)
	sweepRefs := map[string]int{}
	for d, n := range refs {
		sweepRefs[d] = n
	}
	// Union-pin rule: a hub-attached run sweeps the shared store, so every
	// peer run's references (journal + manifest fallbacks) pin. With the
	// union in place this full sweep reclaims exactly the digests dead
	// across ALL attached runs — the hub GC invariant.
	hp, err := peerPins(b, runRoot)
	if err != nil {
		return rep, err
	}
	mergePins(sweepRefs, hp)
	retiredName := map[string]bool{}
	for _, ar := range audit.records {
		switch ar.state {
		case RefSuperseded:
			// Provably replaced: pins nothing, its exclusive digests are
			// exactly the garbage this sweep reclaims.
			retiredName[ar.entry.Name] = true
		case RefCorrupt:
			// Unreadable: pins nothing it can name; its directory (if any)
			// pins through refs already.
			retiredName[ar.entry.Name] = true
		default:
			if ar.rec != nil {
				for _, dg := range ar.rec.Digests {
					sweepRefs[dg]++
				}
			}
			if ar.state == RefOrphaned {
				rep.IndexStale++
			}
		}
	}
	// Trash left by a sweep that crashed between trash and purge: restore
	// whatever is referenced, drop the rest, before the main sweep.
	if trash, _ := store.ListTrash(); len(trash) > 0 {
		if _, purged, err := handleTrash(store, sweepRefs); err != nil {
			return rep, err
		} else {
			rep.RemovedBlobs = append(rep.RemovedBlobs, purged...)
		}
	}
	sw, err := store.SweepRecheck(sweepRefs, indexRecheck(b, runRoot, retiredName))
	if sw != nil {
		rep.Kept = sw.Kept
		rep.Examined = sw.Examined
		rep.RemovedBlobs = append(rep.RemovedBlobs, sw.RemovedBlobs...)
		rep.RemovedStaging = sw.RemovedStaging
		rep.BytesFreed = sw.BytesFreed
	}
	if err != nil {
		return rep, err
	}
	// Index validation: retire superseded records, rewrite divergent ones,
	// add missing ones — all derived from the manifests just read, so the
	// index a generational sweep will trust next time agrees with ground
	// truth. Orphaned records are reported, never removed here.
	ix, err := refIndexFor(b, runRoot)
	if err != nil {
		return rep, err
	}
	for _, ar := range audit.records {
		switch ar.state {
		case RefSuperseded, RefCorrupt:
			if err := ix.Remove(ar.entry); err != nil {
				return rep, err
			}
			rep.IndexRetired = append(rep.IndexRetired, ar.entry.Name)
		case RefDivergent:
			d, ok := findBound(dirs, ar.entry)
			if !ok {
				continue
			}
			if err := ix.Append(&storage.RefRecord{
				Version: FormatVersion, Key: ar.entry.Key, Step: stepOf(b, d.Path),
				Generation: ar.entry.Generation, Digests: storage.NormalizeDigests(append([]string(nil), d.Digests...)),
			}); err != nil {
				return rep, err
			}
			rep.IndexRepaired = append(rep.IndexRepaired, ar.entry.Name)
		}
	}
	for _, d := range audit.missing {
		gen := d.RefGen
		if gen <= 0 {
			if gen, err = ix.NextGeneration(); err != nil {
				return rep, err
			}
		}
		if err := ix.Append(&storage.RefRecord{
			Version: FormatVersion, Key: d.Key, Step: stepOf(b, d.Path),
			Generation: gen, Digests: storage.NormalizeDigests(append([]string(nil), d.Digests...)),
		}); err != nil {
			return rep, err
		}
		rep.IndexRepaired = append(rep.IndexRepaired, d.Key)
	}
	return rep, nil
}

// GCDryRun runs the full mark-and-sweep's mark phase without mutating
// anything: references are re-derived from every manifest, unioned with
// the journal's pins, and the whole store is classified against them. The
// report mirrors GC's accounting — Examined/Kept count every stored blob,
// RemovedBlobs/RemovedStaging/BytesFreed list what a real sweep would
// reclaim, and IndexRetired/IndexRepaired name the records it would
// retire or rebuild.
func GCDryRun(b storage.Backend, runRoot string) (*GCReport, error) {
	dirs, err := collectDirRefs(b, runRoot)
	if err != nil {
		return nil, err
	}
	refs := map[string]int{}
	for _, d := range dirs {
		for _, dg := range d.Digests {
			refs[dg]++
		}
	}
	rep := &GCReport{Mode: "full", DryRun: true, Referenced: len(refs)}
	store, err := storage.OpenCAS(b, objectsPath(runRoot))
	if err != nil {
		return nil, err
	}
	if !b.Exists(store.Root()) {
		return rep, nil
	}
	audit, err := auditRefs(b, runRoot, dirs)
	if err != nil {
		return nil, err
	}
	rep.IndexRecords = len(audit.records)
	sweepRefs := map[string]int{}
	for d, n := range refs {
		sweepRefs[d] = n
	}
	// Union-pin rule, as in GC: peer runs of a hub-attached store pin.
	hp, err := peerPins(b, runRoot)
	if err != nil {
		return rep, err
	}
	mergePins(sweepRefs, hp)
	for _, ar := range audit.records {
		switch ar.state {
		case RefSuperseded, RefCorrupt:
			rep.IndexRetired = append(rep.IndexRetired, ar.entry.Name)
		default:
			if ar.rec != nil {
				for _, dg := range ar.rec.Digests {
					sweepRefs[dg]++
				}
			}
			if ar.state == RefOrphaned {
				rep.IndexStale++
			}
			if ar.state == RefDivergent {
				rep.IndexRepaired = append(rep.IndexRepaired, ar.entry.Name)
			}
		}
	}
	for _, d := range audit.missing {
		rep.IndexRepaired = append(rep.IndexRepaired, d.Key)
	}
	blobs, staging, _, err := store.List()
	if err != nil {
		return rep, err
	}
	for _, blob := range blobs {
		rep.Examined++
		if sweepRefs[blob.Digest] > 0 {
			rep.Kept++
		} else {
			rep.RemovedBlobs = append(rep.RemovedBlobs, blob.Digest)
			if blob.Size > 0 {
				rep.BytesFreed += blob.Size
			}
		}
	}
	rep.RemovedStaging = staging
	// Trash from an interrupted two-phase sweep: a real run purges what is
	// no longer referenced (and restores the rest).
	trash, err := store.ListTrash()
	if err != nil {
		return rep, err
	}
	for _, t := range trash {
		if sweepRefs[t.Digest] == 0 {
			rep.RemovedBlobs = append(rep.RemovedBlobs, t.Digest)
			if t.Size > 0 {
				rep.BytesFreed += t.Size
			}
		}
	}
	return rep, nil
}

// BlobState classifies one entry of the run root's blob store.
type BlobState int

const (
	// BlobReferenced: at least one committed manifest references it.
	BlobReferenced BlobState = iota
	// BlobUnreferenced: no committed manifest references it (garbage a GC
	// run will sweep — harmless, but storage it would be nice to reclaim).
	BlobUnreferenced
	// BlobStaging: residue of a crashed blob put.
	BlobStaging
	// BlobStray: an entry under objects/ that is neither a valid blob nor
	// staging residue (external mutilation; never touched automatically).
	BlobStray
	// BlobTrashed: provisionally removed by a two-phase sweep that did not
	// finish. Repair (and doctor -fix) restores it when still referenced
	// and purges it otherwise.
	BlobTrashed
)

// String names the state for reports.
func (s BlobState) String() string {
	switch s {
	case BlobReferenced:
		return "referenced"
	case BlobUnreferenced:
		return "unreferenced"
	case BlobStaging:
		return "blob-staging"
	case BlobStray:
		return "stray"
	case BlobTrashed:
		return "trashed"
	}
	return fmt.Sprintf("blob-state(%d)", int(s))
}

// BlobStatus is one scanned blob-store entry.
type BlobStatus struct {
	// Path is the entry's path relative to the backend root.
	Path string
	// Digest is the blob's digest ("" for staging/stray entries).
	Digest string
	// State is the classification.
	State BlobState
	// Size is the entry's byte size when known (-1 otherwise).
	Size int64
	// Refs is the number of manifest references (referenced blobs only).
	Refs int
}

// ScanBlobs classifies every entry of the run root's blob store against
// the committed manifests' references — the blob half of the doctor view.
// A run root without an objects directory yields an empty scan.
func ScanBlobs(b storage.Backend, runRoot string) ([]BlobStatus, error) {
	store, err := storage.OpenCAS(b, objectsPath(runRoot))
	if err != nil {
		return nil, err
	}
	if !b.Exists(store.Root()) {
		return nil, nil
	}
	refs, err := BlobRefs(b, runRoot)
	if err != nil {
		return nil, err
	}
	// Union-pin rule: on a hub-attached run the store is shared, so blobs
	// referenced only by peer runs still classify as referenced, not orphan.
	hp, err := peerPins(b, runRoot)
	if err != nil {
		return nil, err
	}
	mergePins(refs, hp)
	blobs, staging, stray, err := store.List()
	if err != nil {
		return nil, err
	}
	var out []BlobStatus
	for _, blob := range blobs {
		st := BlobStatus{Path: store.Path(blob.Digest), Digest: blob.Digest, Size: blob.Size}
		if n := refs[blob.Digest]; n > 0 {
			st.State, st.Refs = BlobReferenced, n
		} else {
			st.State = BlobUnreferenced
		}
		out = append(out, st)
	}
	for _, p := range staging {
		out = append(out, BlobStatus{Path: p, State: BlobStaging, Size: -1})
	}
	for _, p := range stray {
		out = append(out, BlobStatus{Path: p, State: BlobStray, Size: -1})
	}
	trash, err := store.ListTrash()
	if err != nil {
		return nil, err
	}
	for _, t := range trash {
		out = append(out, BlobStatus{
			Path: store.Root() + "/.trash/" + t.Digest, Digest: t.Digest,
			State: BlobTrashed, Size: t.Size, Refs: refs[t.Digest],
		})
	}
	return out, nil
}

// DedupifyReport records what a checkpoint conversion stored and reused.
type DedupifyReport struct {
	// BlobsPut counts blobs written (new content).
	BlobsPut int
	// BlobsReused counts payloads whose blob already existed.
	BlobsReused int
	// BlobBytesWritten totals bytes of new blobs.
	BlobBytesWritten int64
	// BytesDeduped totals payload bytes that cost nothing (reused blobs).
	BytesDeduped int64
}

// Dedupify converts a committed plain checkpoint to content-addressed form
// in place: every weight-tensor and optimizer-group payload is stored as a
// blob (via the raw extent surface — no decode), the LTSF/LTOS containers
// are replaced by manifests, and the directory is republished under the
// commit protocol, so a crash mid-conversion leaves a committed, readable
// checkpoint at every instant. Already-dedup directories are a no-op.
//
// On a rename-capable backend the directory is re-staged and atomically
// renamed over itself. On a no-rename backend (object stores) the commit
// transaction cannot be reused — Begin clears the final directory, which
// here IS the input — so the conversion publishes in place instead:
//
//  1. manifests are PUT under their final keys as unlisted extras (the
//     commit contract checks only listed files, so the directory stays
//     committed under the old marker);
//  2. one marker PUT atomically swaps the file listing — manifests in,
//     payload containers and manifest.json out (manifest.json must go
//     unlisted so step 3 can rewrite it without a torn window);
//  3. manifest.json is rewritten (Dedup, RefGen) while unlisted;
//  4. a second marker PUT re-lists manifest.json under its new sum;
//  5. the now-unlisted LTSF/LTOS containers are deleted.
//
// A crash between any two steps leaves the directory committed — readers
// see the plain form until step 5 removes model.ltsf, the dedup form after
// — and a re-run converges: before step 5 the plain containers still
// exist, so the whole conversion replays idempotently; after it, the
// IsDedup no-op path sweeps any leftover unlisted shard containers.
func Dedupify(b storage.Backend, dir string, chunkBytes int) (*DedupifyReport, error) {
	rep := &DedupifyReport{}
	if IsDedup(b, dir) {
		if !storage.RenameSupported(b) {
			if err := sweepUnlistedShardFiles(b, dir); err != nil {
				return nil, err
			}
		}
		return rep, nil
	}
	marker, err := ReadCommitMarker(b, dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: dedupify %s: only committed checkpoints convert: %w", dir, err)
	}
	store, err := storeFor(b, dir)
	if err != nil {
		return nil, err
	}
	// Phase 1 hashes every extent without touching the store, so the full
	// digest set can be journaled before the first blob is published —
	// the same record-precedes-blobs ordering the dedup save path uses.
	type pendingBlob struct {
		digest string
		size   int64
		open   func() (io.ReadCloser, error)
	}
	var pendings []pendingBlob
	var digests []string
	encodeOf := func(open func() (io.ReadCloser, error)) func(io.Writer) (int64, error) {
		return func(w io.Writer) (int64, error) {
			rc, err := open()
			if err != nil {
				return 0, err
			}
			n, err := io.Copy(w, rc)
			if cerr := rc.Close(); err == nil {
				err = cerr
			}
			return n, err
		}
	}
	put := func(extentOpen func() (io.ReadCloser, error), size int64) (string, uint32, error) {
		digest, crc, err := hashStream(size, encodeOf(extentOpen))
		if err != nil {
			return "", 0, err
		}
		pendings = append(pendings, pendingBlob{digest: digest, size: size, open: extentOpen})
		digests = append(digests, digest)
		return digest, crc, nil
	}

	// Weights: blob every tensor extent in payload order, so the manifest
	// order (and any later materialization) matches the original container
	// byte for byte.
	lr, err := OpenLTSF(b, dir+"/model.ltsf")
	if err != nil {
		return nil, fmt.Errorf("ckpt: dedupify %s: %w", dir, err)
	}
	type ordered struct {
		name string
		meta ltsfTensorMeta
	}
	var tensors []ordered
	for name, meta := range lr.hdr.Tensors {
		tensors = append(tensors, ordered{name, meta})
	}
	sort.Slice(tensors, func(i, j int) bool {
		if tensors[i].meta.Offsets[0] != tensors[j].meta.Offsets[0] {
			return tensors[i].meta.Offsets[0] < tensors[j].meta.Offsets[0]
		}
		return tensors[i].name < tensors[j].name
	})
	wm := &WeightManifest{Version: FormatVersion, Model: lr.Model()}
	for _, t := range tensors {
		rt, err := lr.RawTensor(t.name)
		if err != nil {
			return nil, err
		}
		digest, crc, err := put(func() (io.ReadCloser, error) {
			_, rc, err := lr.OpenRaw(t.name)
			return rc, err
		}, rt.Size)
		if err != nil {
			return nil, fmt.Errorf("ckpt: dedupify %s: tensor %q: %w", dir, t.name, err)
		}
		if crc != rt.CRC32 {
			return nil, fmt.Errorf("ckpt: dedupify %s: tensor %q payload CRC %08x, header says %08x", dir, t.name, crc, rt.CRC32)
		}
		wm.Tensors = append(wm.Tensors, WeightEntry{
			Name: t.name, DType: rt.DType, Shape: rt.Shape,
			Size: rt.Size, CRC32: rt.CRC32, Digest: digest,
		})
	}

	// Optimizer shards: blob every group extent of every rank file found.
	var shardMans []rankManifest
	for rank := 0; ; rank++ {
		name := dir + "/" + ShardFileName(rank)
		if !b.Exists(name) {
			break
		}
		h, err := ReadShardHeader(b, name)
		if err != nil {
			return nil, fmt.Errorf("ckpt: dedupify %s: %w", dir, err)
		}
		payloadOff := h.FileBytes - h.PayloadBytes
		sm := &ShardManifest{
			Version: FormatVersion, Rank: h.Rank, WorldSize: h.WorldSize,
			Step: h.Step, Layout: h.Layout.String(),
		}
		for _, g := range h.Groups {
			size := g.Offsets[1] - g.Offsets[0]
			off := payloadOff + g.Offsets[0]
			digest, crc, err := put(func() (io.ReadCloser, error) {
				return b.OpenRange(name, off, size)
			}, size)
			if err != nil {
				return nil, fmt.Errorf("ckpt: dedupify %s: rank %d group %d: %w", dir, rank, g.Index, err)
			}
			if crc != g.CRC32 {
				return nil, fmt.Errorf("ckpt: dedupify %s: rank %d group %d CRC %08x, header says %08x", dir, rank, g.Index, crc, g.CRC32)
			}
			sm.Groups = append(sm.Groups, ShardGroupEntry{
				Index: g.Index, Numel: g.Numel, ShardLen: g.ShardLen,
				NoDecay: g.NoDecay, Layer: g.Layer,
				Size: size, CRC32: g.CRC32, Digest: digest,
			})
		}
		shardMans = append(shardMans, rankManifest{rank, sm})
	}

	// Journal the reference record, then publish the blobs it pins.
	gen, err := appendRefRecord(b, dir, marker.Step, digests)
	if err != nil {
		return nil, err
	}
	for _, p := range pendings {
		wrote, err := store.PutStream(p.digest, encodeOf(p.open))
		if err != nil {
			return nil, fmt.Errorf("ckpt: dedupify %s: blob %s: %w", dir, p.digest, err)
		}
		if wrote {
			rep.BlobsPut++
			rep.BlobBytesWritten += p.size
		} else {
			rep.BlobsReused++
			rep.BytesDeduped += p.size
		}
	}

	if !storage.RenameSupported(b) {
		return rep, dedupifyInPlace(b, dir, marker, gen, wm, shardMans)
	}

	// Re-stage the directory: manifests in place of payload containers,
	// every other committed file copied verbatim.
	txn, err := Begin(b, dir)
	if err != nil {
		return nil, err
	}
	defer txn.Abort()
	sb, staging := txn.Backend(), txn.Dir()
	if err := WriteWeightManifest(sb, staging+"/"+WeightManifestName, wm); err != nil {
		return nil, err
	}
	for _, rm := range shardMans {
		if err := WriteShardManifest(sb, staging+"/"+ShardManifestName(rm.rank), rm.man); err != nil {
			return nil, err
		}
	}
	skip := map[string]bool{"model.ltsf": true}
	for _, rm := range shardMans {
		skip[ShardFileName(rm.rank)] = true
	}
	names := make([]string, 0, len(marker.Files))
	for name := range marker.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if skip[name] {
			continue
		}
		data, err := b.ReadFile(dir + "/" + name)
		if err != nil {
			return nil, fmt.Errorf("ckpt: dedupify %s: copy %s: %w", dir, name, err)
		}
		if name == "manifest.json" {
			var man Manifest
			if err := json.Unmarshal(data, &man); err != nil {
				return nil, fmt.Errorf("ckpt: dedupify %s: decode manifest.json: %w", dir, err)
			}
			man.Dedup = true
			man.RefGen = gen
			if err := writeJSON(sb, staging+"/manifest.json", &man); err != nil {
				return nil, err
			}
			continue
		}
		if err := sb.WriteFile(staging+"/"+name, data); err != nil {
			return nil, err
		}
	}
	if err := txn.Commit(marker.Step); err != nil {
		return nil, err
	}
	return rep, nil
}

// rankManifest pairs one rank's shard manifest with its rank for staging.
type rankManifest struct {
	rank int
	man  *ShardManifest
}

// dedupifyInPlace is Dedupify's no-rename publication tail (steps 1–5 of
// the protocol described on Dedupify). The blobs and the ref record are
// already durable when it runs; every individual write here is an atomic
// whole-object PUT, and the directory verifies as committed between any
// two of them.
func dedupifyInPlace(b storage.Backend, dir string, marker CommitMarker, gen int64,
	wm *WeightManifest, shardMans []rankManifest) error {

	// Step 1: PUT the manifests under their final keys. They are not listed
	// in the current marker, so the directory's commit contract is
	// untouched; record their sums for the marker swap.
	sums := map[string]FileSum{}
	putSummed := func(name string, data []byte) error {
		if err := b.WriteFile(dir+"/"+name, data); err != nil {
			return err
		}
		sums[name] = FileSum{Size: int64(len(data)), CRC32: crc32.ChecksumIEEE(data)}
		return nil
	}
	wdata, err := encodeManifest(ltmfMagic, wm)
	if err != nil {
		return err
	}
	if err := putSummed(WeightManifestName, wdata); err != nil {
		return fmt.Errorf("ckpt: dedupify %s: %w", dir, err)
	}
	for _, rm := range shardMans {
		sdata, err := encodeManifest(ltomMagic, rm.man)
		if err != nil {
			return err
		}
		if err := putSummed(ShardManifestName(rm.rank), sdata); err != nil {
			return fmt.Errorf("ckpt: dedupify %s: %w", dir, err)
		}
	}

	// Step 2: one marker PUT swaps the listing — manifests in, payload
	// containers out. manifest.json goes unlisted too: it must be rewritten
	// (Dedup, RefGen) and a listed file can never change content without a
	// window in which the marker's CRC is wrong.
	drop := map[string]bool{"model.ltsf": true, "manifest.json": true}
	for _, rm := range shardMans {
		drop[ShardFileName(rm.rank)] = true
	}
	m2 := CommitMarker{Version: FormatVersion, Step: marker.Step, Files: map[string]FileSum{}}
	for name, sum := range marker.Files {
		if !drop[name] {
			m2.Files[name] = sum
		}
	}
	for name, sum := range sums {
		m2.Files[name] = sum
	}
	if err := writeJSON(b, dir+"/"+CommitMarkerName, &m2); err != nil {
		return fmt.Errorf("ckpt: dedupify %s: swap marker: %w", dir, err)
	}

	// Step 3: rewrite manifest.json while unlisted.
	mdata, err := b.ReadFile(dir + "/manifest.json")
	if err != nil {
		return fmt.Errorf("ckpt: dedupify %s: read manifest.json: %w", dir, err)
	}
	var man Manifest
	if err := json.Unmarshal(mdata, &man); err != nil {
		return fmt.Errorf("ckpt: dedupify %s: decode manifest.json: %w", dir, err)
	}
	man.Dedup = true
	man.RefGen = gen
	newMan, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return fmt.Errorf("ckpt: dedupify %s: marshal manifest.json: %w", dir, err)
	}
	newMan = append(newMan, '\n')
	if err := b.WriteFile(dir+"/manifest.json", newMan); err != nil {
		return fmt.Errorf("ckpt: dedupify %s: rewrite manifest.json: %w", dir, err)
	}

	// Step 4: re-list manifest.json under its new sum.
	m2.Files["manifest.json"] = FileSum{Size: int64(len(newMan)), CRC32: crc32.ChecksumIEEE(newMan)}
	if err := writeJSON(b, dir+"/"+CommitMarkerName, &m2); err != nil {
		return fmt.Errorf("ckpt: dedupify %s: reseal marker: %w", dir, err)
	}

	// Step 5: drop the now-unlisted payload containers. model.ltsf first —
	// its disappearance is what flips readers to the dedup form.
	if err := b.Remove(dir + "/model.ltsf"); err != nil && !storage.IsNotExist(err) {
		return fmt.Errorf("ckpt: dedupify %s: remove model.ltsf: %w", dir, err)
	}
	for _, rm := range shardMans {
		if err := b.Remove(dir + "/" + ShardFileName(rm.rank)); err != nil && !storage.IsNotExist(err) {
			return fmt.Errorf("ckpt: dedupify %s: remove %s: %w", dir, ShardFileName(rm.rank), err)
		}
	}
	return nil
}

// sweepUnlistedShardFiles removes LTOS containers a crashed no-rename
// conversion left behind after its marker swap (they are unlisted extras —
// harmless to readers, but dead weight). Listed shard files are never
// touched.
func sweepUnlistedShardFiles(b storage.Backend, dir string) error {
	marker, err := ReadCommitMarker(b, dir)
	if err != nil {
		return nil // not committed: nothing to judge against
	}
	// The crashed conversion may have removed some ranks' containers
	// already, so missing files cannot end the scan — walk every rank the
	// dedup form manifests, which is exactly the set the conversion was
	// deleting when it died.
	for _, rank := range shardManifestRanks(b, dir) {
		name := ShardFileName(rank)
		if !b.Exists(dir + "/" + name) {
			continue
		}
		if _, listed := marker.Files[name]; listed {
			continue
		}
		if err := b.Remove(dir + "/" + name); err != nil {
			return fmt.Errorf("ckpt: dedupify %s: sweep %s: %w", dir, name, err)
		}
	}
	return nil
}
