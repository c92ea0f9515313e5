// Lazy layer-wise checkpoint capture.
//
// The snapshot-mode AsyncSaver stalls training for a full deep copy of the
// model and optimizer before any background work begins — O(model size)
// per save no matter how little changed. The capture engine here bounds
// that stall by the *changed-layer set* instead, the lazy asynchronous
// capture idea of DataStates-LLM combined with ByteCheckpoint's
// decomposition of save into pipelined stages:
//
//   - Save enumerates the checkpoint (buildSavePlan — metadata only) and
//     enqueues one capture unit per layer on a worker pipeline, returning
//     immediately.
//   - Capture workers drain each layer out of the live state: a dedup save
//     streams the layer through SHA-256 first and consults the blob store —
//     a digest hit short-circuits to a manifest reference with zero payload
//     bytes moved — and only content misses are copied into a spool (a
//     pooled buffer under a ByteGate budget, or an unmetered temp file when
//     the budget is exhausted, so a worker never blocks holding a layer).
//     When the optimizer's per-layer mutation counters (SaveSpec.LayerGens)
//     prove a layer untouched since the previous capture, even the hash is
//     skipped and the cached digests are reused.
//   - The ordered save pipeline assembles each checkpoint from its captured
//     payloads once every unit lands, under the exact same journal →
//     publish → seal → rename commit protocol as the synchronous path, so
//     the output is byte-identical and crash exploration carries over.
//
// The trainer calls WaitCaptured before the next optimizer step; from that
// point the live tensors are free to mutate while manifests and blobs are
// still being written in the background.

package ckpt

import (
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
	"sync"

	"llmtailor/internal/modelcfg"
	"llmtailor/internal/parallel"
	"llmtailor/internal/storage"
	"llmtailor/internal/zero"
)

// CaptureOptions tunes the lazy capture scheduler.
type CaptureOptions struct {
	// Workers is the number of concurrent capture workers (hash + spool).
	// Defaults to 4.
	Workers int
	// SpoolBytes bounds the pooled spool memory held by in-flight captures.
	// Payloads that do not fit fall back to unmetered temp files rather
	// than blocking a worker. It also bounds the parent cache of an xor
	// codec save (see CaptureStats.ParentBytesHeld). Defaults to 256 MiB.
	SpoolBytes int64
}

func (o CaptureOptions) withDefaults() CaptureOptions {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.SpoolBytes <= 0 {
		o.SpoolBytes = 256 << 20
	}
	return o
}

// CaptureStats is a snapshot of the engine's accounting. The stall-bound
// claim is measured in bytes: BytesHashed + BytesSpooled is the data the
// engine actually touched for a save, while BytesReferenced (digest hits)
// and gen-reused layers cost nothing — so on a workload where one of L
// layers changes per step, the touched bytes shrink by ~L× versus a
// snapshot of everything.
type CaptureStats struct {
	// Saves is the number of scheduled captures.
	Saves int64
	// LayersReused counts layer units short-circuited by the mutation-
	// counter proof (no hash, no copy).
	LayersReused int64
	// PayloadsSpooled / PayloadsReferenced count payloads copied into
	// spools vs deduplicated to existing blobs.
	PayloadsSpooled    int64
	PayloadsReferenced int64
	// BytesHashed is the payload bytes streamed through SHA-256.
	BytesHashed int64
	// BytesSpooled is the payload bytes copied out of live state.
	BytesSpooled int64
	// BytesReferenced is the payload bytes resolved to existing blobs
	// without moving.
	BytesReferenced int64
	// StallNs is the cumulative wall time the training loop was blocked in
	// Save and WaitCaptured.
	StallNs int64
	// SpoolPeakBytes is the pooled-spool memory high-water mark.
	SpoolPeakBytes int64
	// ParentHits / ParentMisses count xor deltas the write stage encoded
	// against a payload it published earlier (still in the parent cache)
	// versus a parent read back and decoded from the store.
	ParentHits   int64
	ParentMisses int64
	// ParentBytesHeld is the payload bytes the parent cache holds now: at
	// most SpoolBytes, and 0 once Wait has drained the saver.
	ParentBytesHeld int64
	// Pool reports buffer reuse.
	Pool storage.BufferPoolStats
}

// capturedPayload is one payload's landed identity: its digest/CRC/size
// plus, when the content had to move, the spool holding its exact bytes.
// A nil spool means the payload resolved to an existing blob (dedup hit or
// gen-proof reuse).
type capturedPayload struct {
	digest string
	crc    uint32
	size   int64
	spool  storage.CaptureSpool
	// gated is the spool's byte cost held in the engine's gate until the
	// payload is released (0 for file-backed spools).
	gated int64
	// entryCodec/entryStored/entryParents record how the blob actually
	// landed in the store; writeDedup fills them at publish time and the
	// manifest entries copy them.
	entryCodec   string
	entryStored  int64
	entryParents []string
}

// captureTicket tracks one save through capture: the plan, a result slot
// per payload, and a latch that closes when every unit has landed (or
// failed). The write stage waits on the latch; WaitCaptured waits on every
// outstanding ticket's latch.
type captureTicket struct {
	spec SaveSpec
	plan *savePlan
	// weightRes is parallel to plan.weights; groupRes[gi][rank] is parallel
	// to plan.metas × worldSize.
	weightRes []capturedPayload
	groupRes  [][]capturedPayload

	mu        sync.Mutex
	remaining int
	err       error
	done      chan struct{}
}

// fail records the ticket's first error.
func (t *captureTicket) fail(err error) {
	t.mu.Lock()
	if t.err == nil {
		t.err = err
	}
	t.mu.Unlock()
}

func (t *captureTicket) failure() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// unitDone counts down the latch.
func (t *captureTicket) unitDone() {
	t.mu.Lock()
	t.remaining--
	last := t.remaining == 0
	t.mu.Unlock()
	if last {
		close(t.done)
	}
}

// captureUnit is one layer's slice of a ticket: the weight tensors and
// optimizer groups the layer owns. Auxiliary groups without a layer (the
// two-group layout) ride in their own units.
type captureUnit struct {
	t        *captureTicket
	layer    modelcfg.LayerRef
	hasLayer bool
	// weightIdx / groupIdx index into the plan's weights / metas.
	weightIdx []int
	groupIdx  []int
}

// payloadID is a payload's cached identity from a previous capture.
type payloadID struct {
	digest string
	crc    uint32
	size   int64
}

type groupSlot struct{ index, rank int }

// layerCacheEntry remembers one layer's payload identities as of a
// mutation-counter generation: if the counter has not moved, the layer's
// bytes are provably identical and the digests can be reused without
// hashing.
type layerCacheEntry struct {
	gen     int64
	weights map[string]payloadID
	groups  map[groupSlot]payloadID
}

// captureEngine owns the capture pipeline, the spool pool and budget gate,
// the per-layer generation cache, the parent cache of the write stage, and
// the outstanding-ticket set.
type captureEngine struct {
	base storage.Backend
	pool *storage.BufferPool
	gate *parallel.ByteGate
	pipe *parallel.Pipeline[*captureUnit, struct{}]
	// parents holds the payloads the write stage published, verified by
	// PutStreamOpts, so the next xor save deltas against them without
	// decoding the parent chain. Restore never sees it.
	parents *storage.ParentCache

	mu      sync.Mutex
	cache   map[string]*layerCacheEntry
	pending []*captureTicket
	stats   CaptureStats
}

func newCaptureEngine(b storage.Backend, opts CaptureOptions) *captureEngine {
	opts = opts.withDefaults()
	e := &captureEngine{
		base:    b,
		pool:    storage.NewBufferPool(),
		gate:    parallel.NewByteGate(opts.SpoolBytes),
		parents: storage.NewParentCache(opts.SpoolBytes),
		cache:   map[string]*layerCacheEntry{},
	}
	// Units fan in unordered (each lands in its ticket slot), so the
	// pipeline's ordered sink is a no-op; errors travel through tickets.
	e.pipe = parallel.NewPipeline(opts.Workers, opts.Workers*4,
		func(u *captureUnit) (struct{}, error) {
			e.runUnit(u)
			return struct{}{}, nil
		},
		func(struct{}) error { return nil })
	return e
}

func (e *captureEngine) addStall(ns int64) {
	e.mu.Lock()
	e.stats.StallNs += ns
	e.mu.Unlock()
}

func (e *captureEngine) snapshot() CaptureStats {
	e.mu.Lock()
	s := e.stats
	e.mu.Unlock()
	s.SpoolPeakBytes = e.gate.Peak()
	s.Pool = e.pool.Stats()
	ps := e.parents.Stats()
	s.ParentHits, s.ParentMisses, s.ParentBytesHeld = ps.Hits, ps.Misses, ps.HeldBytes
	return s
}

// cacheKey scopes gen-proof reuse to one blob store, world size and layer:
// a different run root or resharding must never hit another run's entries.
func cacheKey(spec *SaveSpec, layer modelcfg.LayerRef) string {
	return ObjectsRoot(spec.Dir) + "|" + strconv.Itoa(spec.WorldSize) + "|" + layer.String()
}

// schedule validates a spec, carves it into per-layer units and enqueues
// them. It reads no payload bytes — the foreground cost of a lazy save.
func (e *captureEngine) schedule(spec SaveSpec) (*captureTicket, error) {
	plan, err := buildSavePlan(&spec)
	if err != nil {
		return nil, err
	}
	t := &captureTicket{
		spec: spec, plan: plan, done: make(chan struct{}),
		weightRes: make([]capturedPayload, len(plan.weights)),
		groupRes:  make([][]capturedPayload, len(plan.metas)),
	}
	for i := range t.groupRes {
		t.groupRes[i] = make([]capturedPayload, plan.worldSize)
	}
	units := unitsFor(t)
	t.remaining = len(units)
	if len(units) == 0 {
		close(t.done)
	}
	e.mu.Lock()
	e.pending = append(e.pending, t)
	e.stats.Saves++
	e.mu.Unlock()
	for i, u := range units {
		if err := e.pipe.Push(u); err != nil {
			t.fail(fmt.Errorf("ckpt: capture scheduler closed"))
			for j := i; j < len(units); j++ {
				t.unitDone()
			}
			break
		}
	}
	return t, nil
}

// unitsFor groups a plan's payloads by owning layer, preserving plan order
// within each unit so capture output matches the synchronous payload order.
func unitsFor(t *captureTicket) []*captureUnit {
	plan := t.plan
	var units []*captureUnit
	byLayer := map[modelcfg.LayerRef]*captureUnit{}
	unitOf := func(ref modelcfg.LayerRef) *captureUnit {
		u, ok := byLayer[ref]
		if !ok {
			u = &captureUnit{t: t, layer: ref, hasLayer: true}
			byLayer[ref] = u
			units = append(units, u)
		}
		return u
	}
	for i, ref := range plan.weightLayers {
		u := unitOf(ref)
		u.weightIdx = append(u.weightIdx, i)
	}
	for i := range plan.metas {
		if plan.hasLayer[i] {
			u := unitOf(plan.groupLayers[i])
			u.groupIdx = append(u.groupIdx, i)
		} else {
			units = append(units, &captureUnit{t: t, groupIdx: []int{i}})
		}
	}
	return units
}

// runUnit is the pipeline work function: capture one unit, routing any
// failure into the ticket instead of the pipeline's abort channel (every
// unit must land so the latch closes).
func (e *captureEngine) runUnit(u *captureUnit) {
	defer u.t.unitDone()
	if u.t.failure() != nil {
		return
	}
	if err := e.captureUnit(u); err != nil {
		u.t.fail(err)
	}
}

// captureUnit drains one layer out of the live state. On return, every
// slot of the unit is either filled or being cleaned up by the ticket's
// eventual release.
func (e *captureEngine) captureUnit(u *captureUnit) error {
	t := u.t
	plan := t.plan
	dedup := t.spec.Dedup
	var store storage.CAS
	if dedup {
		var err error
		if store, err = storeFor(e.base, t.spec.Dir); err != nil {
			return err
		}
	}

	// Mutation-counter short-circuit: if the layer's counter matches the
	// cached capture and every cached blob still exists, reuse the digests
	// without touching a payload byte.
	var gen int64
	var haveGen bool
	if dedup && u.hasLayer && t.spec.LayerGens != nil {
		gen, haveGen = t.spec.LayerGens[u.layer]
		if haveGen && e.tryReuse(u, gen, store) {
			e.mu.Lock()
			e.stats.LayersReused++
			e.mu.Unlock()
			return nil
		}
	}

	buf := make([]byte, storage.ChunkOrDefault(0))
	for _, i := range u.weightIdx {
		tns := plan.weights[i]
		size := int64(tns.Bytes())
		p, err := e.capturePayload(dedup, store, size, func(w io.Writer) (int64, error) {
			return tns.EncodeTo(w, buf)
		})
		if err != nil {
			return fmt.Errorf("ckpt: capture tensor %q: %w", tns.Name, err)
		}
		t.weightRes[i] = p
	}
	for _, gi := range u.groupIdx {
		m := plan.metas[gi]
		shards, err := zero.ShardGroup(m.Index, plan.states[gi], plan.worldSize)
		if err != nil {
			return fmt.Errorf("ckpt: capture group %d: %w", m.Index, err)
		}
		for r, s := range shards {
			size := s.Numel() * 12
			shard := s
			p, err := e.capturePayload(dedup, store, size, func(w io.Writer) (int64, error) {
				return encodeGroupPayload(w, buf, shard)
			})
			if err != nil {
				return fmt.Errorf("ckpt: capture rank %d group %d: %w", r, m.Index, err)
			}
			t.groupRes[gi][r] = p
		}
	}

	if haveGen {
		e.updateCache(u, gen)
	}
	return nil
}

// tryReuse fills the unit's slots from the layer's cached capture when the
// generation matches and every cached blob is still present. A missing
// blob (retention swept it) falls back to the hash path, which re-creates
// the content from live state.
func (e *captureEngine) tryReuse(u *captureUnit, gen int64, store storage.CAS) bool {
	t := u.t
	plan := t.plan
	key := cacheKey(&t.spec, u.layer)
	e.mu.Lock()
	entry := e.cache[key]
	e.mu.Unlock()
	if entry == nil || entry.gen != gen {
		return false
	}
	var fills []func()
	var reusedBytes int64
	take := func(id payloadID, ok bool, size int64, slot *capturedPayload) bool {
		if !ok || id.size != size || !store.Has(id.digest) {
			return false
		}
		fills = append(fills, func() { *slot = capturedPayload{digest: id.digest, crc: id.crc, size: id.size} })
		reusedBytes += id.size
		return true
	}
	for _, i := range u.weightIdx {
		tns := plan.weights[i]
		id, ok := entry.weights[tns.Name]
		if !take(id, ok, int64(tns.Bytes()), &t.weightRes[i]) {
			return false
		}
	}
	for _, gi := range u.groupIdx {
		part, err := zero.NewPartition(plan.states[gi].Numel(), plan.worldSize)
		if err != nil {
			return false
		}
		size := part.ShardLen() * 12
		for r := 0; r < plan.worldSize; r++ {
			id, ok := entry.groups[groupSlot{plan.metas[gi].Index, r}]
			if !take(id, ok, size, &t.groupRes[gi][r]) {
				return false
			}
		}
	}
	// Commit the reuse only once every slot checked out.
	n := int64(len(fills))
	for _, fill := range fills {
		fill()
	}
	e.mu.Lock()
	e.stats.PayloadsReferenced += n
	e.stats.BytesReferenced += reusedBytes
	e.mu.Unlock()
	return true
}

// updateCache records the unit's landed identities under the layer's
// generation. Out-of-order lands from back-to-back saves only ever move
// the entry forward (generations are monotonic).
func (e *captureEngine) updateCache(u *captureUnit, gen int64) {
	t := u.t
	plan := t.plan
	entry := &layerCacheEntry{
		gen:     gen,
		weights: map[string]payloadID{},
		groups:  map[groupSlot]payloadID{},
	}
	for _, i := range u.weightIdx {
		p := t.weightRes[i]
		entry.weights[plan.weights[i].Name] = payloadID{p.digest, p.crc, p.size}
	}
	for _, gi := range u.groupIdx {
		for r := 0; r < plan.worldSize; r++ {
			p := t.groupRes[gi][r]
			entry.groups[groupSlot{plan.metas[gi].Index, r}] = payloadID{p.digest, p.crc, p.size}
		}
	}
	key := cacheKey(&t.spec, u.layer)
	e.mu.Lock()
	if old := e.cache[key]; old == nil || old.gen <= gen {
		e.cache[key] = entry
	}
	e.mu.Unlock()
}

// capturePayload lands one payload. Dedup saves hash first (no storage
// I/O), short-circuit on an existing blob, and spool only content misses —
// paying a second encode pass for the bytes that actually move. Plain saves
// spool everything in a single pass with the CRC computed inline.
func (e *captureEngine) capturePayload(dedup bool, store storage.CAS,
	size int64, encode func(io.Writer) (int64, error)) (capturedPayload, error) {

	if dedup {
		digest, crc, err := hashStream(size, encode)
		if err != nil {
			return capturedPayload{}, err
		}
		e.mu.Lock()
		e.stats.BytesHashed += size
		e.mu.Unlock()
		if store.Has(digest) {
			e.mu.Lock()
			e.stats.PayloadsReferenced++
			e.stats.BytesReferenced += size
			e.mu.Unlock()
			return capturedPayload{digest: digest, crc: crc, size: size}, nil
		}
		sp, gated, err := e.newSpool(size)
		if err != nil {
			return capturedPayload{}, err
		}
		n, err := encode(sp)
		if err == nil && n != size {
			err = fmt.Errorf("ckpt: payload encoded %d bytes, expected %d", n, size)
		}
		if err != nil {
			sp.Release()
			e.gate.Release(gated)
			return capturedPayload{}, err
		}
		e.mu.Lock()
		e.stats.PayloadsSpooled++
		e.stats.BytesSpooled += size
		e.mu.Unlock()
		return capturedPayload{digest: digest, crc: crc, size: size, spool: sp, gated: gated}, nil
	}

	sp, gated, err := e.newSpool(size)
	if err != nil {
		return capturedPayload{}, err
	}
	crc := crc32.NewIEEE()
	n, err := encode(io.MultiWriter(sp, crc))
	if err == nil && n != size {
		err = fmt.Errorf("ckpt: payload encoded %d bytes, expected %d", n, size)
	}
	if err != nil {
		sp.Release()
		e.gate.Release(gated)
		return capturedPayload{}, err
	}
	e.mu.Lock()
	e.stats.PayloadsSpooled++
	e.stats.BytesSpooled += size
	e.mu.Unlock()
	return capturedPayload{crc: crc.Sum32(), size: size, spool: sp, gated: gated}, nil
}

// newSpool admits a payload under the memory budget without ever blocking:
// a full gate routes the payload to an unmetered temp file instead (a
// blocked capture worker would hold up the very layer release the trainer
// is waiting on).
func (e *captureEngine) newSpool(size int64) (storage.CaptureSpool, int64, error) {
	if e.gate.TryAcquire(size) {
		return e.pool.PooledSpool(size), size, nil
	}
	sp, err := e.pool.FileSpool()
	if err != nil {
		return nil, 0, err
	}
	return sp, 0, nil
}

// releasePayload frees a payload's spool and gate bytes, once.
func (e *captureEngine) releasePayload(p *capturedPayload) {
	if p.spool != nil {
		p.spool.Release()
		p.spool = nil
	}
	if p.gated > 0 {
		e.gate.Release(p.gated)
		p.gated = 0
	}
}

// releaseTicket frees every payload still holding resources. Safe after
// the write stage released some inline (release is idempotent per slot).
func (e *captureEngine) releaseTicket(t *captureTicket) {
	for i := range t.weightRes {
		e.releasePayload(&t.weightRes[i])
	}
	for gi := range t.groupRes {
		for r := range t.groupRes[gi] {
			e.releasePayload(&t.groupRes[gi][r])
		}
	}
}

// abandon waits out a ticket whose save was never enqueued and frees it.
func (e *captureEngine) abandon(t *captureTicket) {
	<-t.done
	e.releaseTicket(t)
}

// waitCaptured blocks until every outstanding ticket's live-state reads
// are finished — the point after which the caller may mutate the model and
// optimizer again. It returns the first capture failure (the write stage
// reports it too; the caller gets to abort early).
func (e *captureEngine) waitCaptured() error {
	e.mu.Lock()
	tickets := e.pending
	e.pending = nil
	e.mu.Unlock()
	var first error
	for _, t := range tickets {
		<-t.done
		if err := t.failure(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// close drains the capture pipeline. Scheduled units finish; later
// schedules fail their tickets.
func (e *captureEngine) close() error { return e.pipe.Close() }

// dropParents empties the parent cache once the write stage has drained.
func (e *captureEngine) dropParents() { e.parents.Reset() }

// write assembles and commits one captured save — the ordered (depth-1)
// stage of the saver. The protocol is the synchronous path's, step for
// step: journal the full digest set, publish moved payloads, stage
// manifests and trailer, seal with the COMMITTED marker, atomic rename,
// then move the latest pointer.
func (e *captureEngine) write(t *captureTicket) error {
	<-t.done
	defer e.releaseTicket(t)
	if err := t.failure(); err != nil {
		return err
	}
	if t.spec.Dedup {
		return e.writeDedup(t)
	}
	return e.writePlain(t)
}

func (e *captureEngine) writeDedup(t *captureTicket) error {
	plan := t.plan
	// Codec plan for this save, handing xor puts the saver's parent cache.
	// The puts carry no coding gate: spooled payloads already hold their
	// bytes in the engine's gate, and letting the encoder block on the same
	// gate could deadlock the write stage.
	cplan, err := newCodecPlan(e.base, t.spec.Dir, t.spec.Codec, t.spec.CodecRebase, e.parents)
	if err != nil {
		return err
	}
	store, err := storeFor(e.base, t.spec.Dir)
	if err != nil {
		return err
	}
	memo := newChainMemo(store)

	// Digest set in the synchronous path's journal order: weights, then
	// rank-major groups — extended with every xor ancestor the planned
	// puts would depend on, and with the actual lineage of any blob that
	// already exists (a dedup hit may carry a chain this save did not plan).
	type putPlan struct {
		opts    storage.BlobPutOptions
		planned []string
	}
	wPuts := make([]putPlan, len(plan.weights))
	gPuts := make([][]putPlan, len(plan.metas))
	for gi := range gPuts {
		gPuts[gi] = make([]putPlan, plan.worldSize)
	}
	digests := make([]string, 0, len(plan.weights)+len(plan.metas)*plan.worldSize)
	addPayload := func(slot, digest string, width int, pp *putPlan) {
		digests = append(digests, digest)
		if cplan != nil {
			pp.opts, pp.planned = cplan.optsFor(slot, digest, width)
			digests = append(digests, pp.planned...)
		}
		if ch, err := memo.chain(digest); err == nil {
			digests = append(digests, ch...)
		}
	}
	for i := range plan.weights {
		tns := plan.weights[i]
		addPayload(weightSlot(tns.Name), t.weightRes[i].digest, tns.DType.Size(), &wPuts[i])
	}
	for r := 0; r < plan.worldSize; r++ {
		for gi := range plan.metas {
			addPayload(groupSlotKey(r, plan.metas[gi].Index), t.groupRes[gi][r].digest, 4, &gPuts[gi][r])
		}
	}

	txn, err := Begin(e.base, t.spec.Dir)
	if err != nil {
		return err
	}
	defer txn.Abort()
	sb, dir := txn.Backend(), txn.Dir()

	// Journal before any blob is published (record-precedes-blobs), then
	// publish the moved payloads in the same weights-then-rank-major order.
	gen, err := appendRefRecord(e.base, t.spec.Dir, plan.stepCount, digests)
	if err != nil {
		return err
	}
	publish := func(p *capturedPayload, pp putPlan, what string) error {
		var res storage.PutResult
		if p.spool != nil {
			res, err = store.PutStreamOpts(p.digest, pp.opts, func(w io.Writer) (int64, error) {
				rc, err := p.spool.Open()
				if err != nil {
					return 0, err
				}
				n, err := io.Copy(w, rc)
				if cerr := rc.Close(); err == nil {
					err = cerr
				}
				return n, err
			})
			if err != nil {
				return fmt.Errorf("ckpt: capture blob %s (%s): %w", p.digest, what, err)
			}
			e.releasePayload(p)
		} else {
			// A referenced payload moved nothing; its blob must still exist
			// (the journal record just appended pins it against any sweep's
			// recheck). If it is gone anyway, fail honestly — the live bytes
			// are no longer available to re-create it. The existence check
			// must run after the journal append; the header itself is the
			// one the digest-set walk above already read. The manifest entry
			// records how the existing blob actually landed.
			if !store.Has(p.digest) {
				return fmt.Errorf("ckpt: capture reused blob %s (%s) missing from store", p.digest, what)
			}
			meta, err := memo.meta(p.digest)
			if err != nil {
				return fmt.Errorf("ckpt: capture reused blob %s (%s): %w", p.digest, what, err)
			}
			res = storage.PutResult{
				Codec: meta.Codec, Parent: meta.Parent,
				RawBytes: meta.RawSize, StoredBytes: meta.StoredSize,
			}
		}
		codec, stored, parents, err := codecEntryMeta(memo, res, pp.planned)
		if err != nil {
			return fmt.Errorf("ckpt: capture blob %s (%s): %w", p.digest, what, err)
		}
		p.entryCodec, p.entryStored, p.entryParents = codec, stored, parents
		return nil
	}
	for i := range plan.weights {
		if err := publish(&t.weightRes[i], wPuts[i], "tensor "+plan.weights[i].Name); err != nil {
			return err
		}
	}
	for r := 0; r < plan.worldSize; r++ {
		for gi := range plan.metas {
			if err := publish(&t.groupRes[gi][r], gPuts[gi][r], fmt.Sprintf("rank %d group %d", r, plan.metas[gi].Index)); err != nil {
				return err
			}
		}
	}

	// Manifests, in payload order, exactly as writeDedupPayloads builds.
	wm := &WeightManifest{Version: FormatVersion, Model: plan.cfg.Name}
	for i, tns := range plan.weights {
		p := t.weightRes[i]
		wm.Tensors = append(wm.Tensors, WeightEntry{
			Name: tns.Name, DType: tns.DType.String(),
			Shape: append([]int(nil), tns.Shape...),
			Size:  p.size, CRC32: p.crc, Digest: p.digest,
			Codec: p.entryCodec, Stored: p.entryStored, Parents: p.entryParents,
		})
	}
	if err := WriteWeightManifest(sb, dir+"/"+WeightManifestName, wm); err != nil {
		return err
	}
	for r := 0; r < plan.worldSize; r++ {
		sm := &ShardManifest{
			Version: FormatVersion, Rank: r, WorldSize: plan.worldSize,
			Step: plan.stepCount, Layout: plan.layoutKind.String(),
		}
		for gi, m := range plan.metas {
			p := t.groupRes[gi][r]
			sm.Groups = append(sm.Groups, ShardGroupEntry{
				Index: m.Index, Numel: m.Numel, ShardLen: p.size / 12,
				NoDecay: m.NoDecay, Layer: m.Layer,
				Size: p.size, CRC32: p.crc, Digest: p.digest,
				Codec: p.entryCodec, Stored: p.entryStored, Parents: p.entryParents,
			})
		}
		if err := WriteShardManifest(sb, dir+"/"+ShardManifestName(r), sm); err != nil {
			return err
		}
	}

	if err := writeTrailer(sb, dir, &t.spec, plan, gen); err != nil {
		return err
	}
	if err := txn.Commit(t.spec.State.Step); err != nil {
		return err
	}
	return WriteLatestPointer(e.base, t.spec.Dir)
}

func (e *captureEngine) writePlain(t *captureTicket) error {
	plan := t.plan
	txn, err := Begin(e.base, t.spec.Dir)
	if err != nil {
		return err
	}
	defer txn.Abort()
	sb, dir := txn.Backend(), txn.Dir()

	// Splice the spooled payloads into the containers with their inline
	// CRCs carried forward — byte-identical to WriteLTSF/WriteShardFile
	// over the same tensors and shards in the same order.
	w, err := NewLTSFWriter(sb, dir+"/model.ltsf", plan.cfg.Name, 0)
	if err != nil {
		return err
	}
	defer w.Abort()
	for i, tns := range plan.weights {
		p := &t.weightRes[i]
		rc, err := p.spool.Open()
		if err != nil {
			return fmt.Errorf("ckpt: capture tensor %q: %w", tns.Name, err)
		}
		err = w.AppendRaw(RawTensor{
			Name: tns.Name, DType: tns.DType.String(),
			Shape: append([]int(nil), tns.Shape...),
			Size:  p.size, CRC32: p.crc,
		}, rc)
		if cerr := rc.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		e.releasePayload(p)
	}
	if err := w.Close(); err != nil {
		return err
	}
	for r := 0; r < plan.worldSize; r++ {
		sw, err := NewShardFileWriter(sb, dir+"/"+ShardFileName(r), r, plan.worldSize,
			plan.stepCount, plan.layoutKind, 0)
		if err != nil {
			return err
		}
		for gi, m := range plan.metas {
			p := &t.groupRes[gi][r]
			m.ShardLen = p.size / 12
			m.CRC32 = p.crc
			rc, err := p.spool.Open()
			if err != nil {
				sw.Abort()
				return fmt.Errorf("ckpt: capture rank %d group %d: %w", r, m.Index, err)
			}
			err = sw.AppendRawGroup(m, p.size, rc)
			if cerr := rc.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				sw.Abort()
				return err
			}
			// Other ranks still need this group's sibling slots; only this
			// rank's payload is consumed.
			e.releasePayload(p)
		}
		if err := sw.Close(); err != nil {
			return err
		}
	}

	if err := writeTrailer(sb, dir, &t.spec, plan, 0); err != nil {
		return err
	}
	if err := txn.Commit(t.spec.State.Step); err != nil {
		return err
	}
	return WriteLatestPointer(e.base, t.spec.Dir)
}
