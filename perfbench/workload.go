package main

import (
	"fmt"
	"path"
	"strings"
	"time"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/recipe"
	"llmtailor/internal/reshard"
	"llmtailor/internal/storage"
	"llmtailor/internal/strategy"
	"llmtailor/internal/tailor"
	"llmtailor/internal/tensor"
)

const (
	// modelName is the geometry every workload trains: Llama-3.1-8B's 32
	// decoder layers at simulation scale.
	modelName = "llama3.1-8b"
	runRoot   = "run"
	// recoverRoot holds the parity workload's merge and reshard outputs;
	// they are removed once the restored state is verified.
	recoverRoot = "recover"
	lr          = 1e-3

	// The parity workload's object store link is the one the repository's
	// multipart upload benchmark simulates (bench_objstore_test.go: 200 µs
	// per request, 256 MiB/s), sped up linkSpeedup times. At full speed a
	// parity event pays about half a second of link time, and the 100+
	// events a run needs for its stall p90 would not fit run_seconds. Even
	// sped up, the link is most of a parity round (info.link_share).
	linkSpeedup  = 4
	linkPerOp    = 200 * time.Microsecond / linkSpeedup
	linkBytesSec = float64(256<<20) * linkSpeedup
)

// workload fixes everything a round does except the seed.
type workload struct {
	name string

	// Load pattern: dense updates every layer every step; otherwise hot
	// blocks update every step and one cold layer every coldEvery steps.
	dense     bool
	hot       int
	coldEvery int

	interval int // steps per checkpoint event
	events   int // checkpoint events per round
	crashes  int // crash + recovery cycles per round
	keepLast int // retention after every event
	world    int // save world size; parity recovery alternates with reshardWorld

	lazy   bool   // lazy async capture instead of synchronous Save
	dedup  bool   // content-addressed saves
	codec  string // dedup blob codec
	parity bool   // parity partial saves, recovered by merge + reshard

	// Object store link (parity only): per-request latency, bandwidth and
	// every flakeEvery-th PUT failing transiently.
	objstore     bool
	reshardWorld int
	perOp        time.Duration
	bytesPerSec  float64
	flakeEvery   int
}

var workloads = []workload{
	// The paper's premise: layer-sparse updates saved by lazy capture with
	// dedup and the xor codec, so capture gen-skip, CAS, codec, retention
	// and xor-chained restore do the work. Few crashes: the saves right
	// after a recovery find the save queue empty and stall less, and more
	// of them made the stall median jump between the two modes.
	//
	// The hot/cold pattern is an assumption, not a measurement: nothing in
	// the repository records which layers a real run updates. It is sized
	// to the repository's incremental-save benchmark, whose acceptance
	// floor holds for saves where at most 20% of layers changed
	// (bench_delta_test.go): over a 4-step interval, 4 hot blocks plus at
	// most 2 cold layers change, 6 of llama3.1-8b's 35 layers, about 17%.
	{
		name: "sparse-lazy",
		hot:  4, coldEvery: 2,
		interval: 4, events: 40, crashes: 4, keepLast: 4, world: 4,
		lazy: true, dedup: true, codec: "xor",
	},
	// The single-worker baseline: every layer changes every step and plain
	// synchronous full saves bypass capture, CAS and codec, so container
	// encode, commit and ZeRO-gather restore dominate.
	{
		name:     "dense-sync",
		dense:    true,
		interval: 2, events: 40, crashes: 8, keepLast: 2, world: 4,
	},
	// LLMTailor's own path: parity partial dedup saves on a latency-bound,
	// flaky object store, recovered by recipe, merge and reshard to another
	// world size. Request count, not CPU, sets most of its time. It uses
	// sparse-lazy's load pattern, and the same assumption.
	{
		name: "parity-merge-objstore",
		hot:  4, coldEvery: 2,
		interval: 4, events: 36, crashes: 4, keepLast: 3, world: 4,
		dedup: true, codec: "raw", parity: true,
		objstore: true, reshardWorld: 2,
		perOp: linkPerOp, bytesPerSec: linkBytesSec, flakeEvery: 50,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// params describes the workload for the result's environment record.
func (w *workload) params() map[string]any {
	p := map[string]any{
		"model": modelName + "-sim", "interval": w.interval, "events": w.events,
		"crashes": w.crashes, "keep_last": w.keepLast, "world": w.world,
		"lazy": w.lazy, "dedup": w.dedup, "codec": w.codec, "parity": w.parity,
	}
	if w.dense {
		p["load"] = "dense"
	} else {
		p["load"] = fmt.Sprintf("%d hot blocks every step, 1 cold layer every %d steps", w.hot, w.coldEvery)
	}
	if w.objstore {
		p["objstore"] = fmt.Sprintf("%v/request, %.0f B/s (the repository's objstore benchmark link sped up %dx), every %dth PUT flakes",
			w.perOp, w.bytesPerSec, linkSpeedup, w.flakeEvery)
		p["reshard_world"] = w.reshardWorld
	}
	return p
}

// roundResult is what one round measured.
type roundResult struct {
	setup, run time.Duration
	link       time.Duration // object store link time charged in the timed phase
	stalls     []float64     // ms per checkpoint event
	recovers   []float64     // ms per crash
	events     int
	// eventBytes is what checkpoint events wrote: every byte of the timed
	// phase except those recovery wrote.
	eventBytes int64
	stored     int64
	attempted  int
	failed     int
	retries    int64
	io         ioCounters
	capture    ckpt.CaptureStats
}

// round is one setup plus one timed phase: train, checkpoint every
// interval steps with keep-last retention, crash at seeded points, recover
// and continue. It calls the layers' public functions in the order
// train.Trainer does and times each call from outside.
type round struct {
	w       *workload
	seed    uint64
	index   int // picks the crash points: rounds of equal index crash alike
	workers int
	cfg     *modelcfg.Config
	tr      *tracer     // nil when untraced
	st      *layerStats // nil when untraced
	// bd takes the per-model-layer breakdown, in a breakdown round of its
	// own: its LayerDelta pass between events would otherwise count in the
	// timings and let the lazy save queue drain.
	bd *layerStats

	raw   storage.Backend // the store itself, for untimed inspection
	mb    *meteredBackend
	retry *storage.Retry
	link  *pacer // the object store's link, nil on Mem
	gen   *loadGen
	dig   *stateDigests
	m     *model.Model
	o     *optim.AdamW
	saver *ckpt.AsyncSaver

	step, saveIdx, world int
	// pending is set while a lazy save's stall awaits its WaitCaptured.
	pending      bool
	pendingStall time.Duration
	// wholeAt maps a saved step to its whole-state digest; newest maps
	// each layer to the digest of its newest saved copy (parity).
	wholeAt map[int]uint64
	newest  map[modelcfg.LayerRef]uint64
	// history lists saved checkpoint dirs in order; deltaNext is the first
	// one whose layer delta the traced run has not yet taken.
	history      []string
	deltaNext    int
	recoverBytes int64
	res          roundResult
}

// newRound is a round's setup, the part setup_s measures: it builds the
// model, optimizer, load generator, digests and storage backend.
func newRound(w *workload, seed uint64, index, workers int, tr *tracer, st *layerStats) (*round, error) {
	t0 := time.Now()
	base, err := modelcfg.ByName(modelName)
	if err != nil {
		return nil, err
	}
	cfg := base.DefaultSimScale()
	r := &round{
		w: w, seed: seed, index: index, workers: workers, cfg: cfg, tr: tr, st: st,
		world: w.world, wholeAt: map[int]uint64{}, newest: map[modelcfg.LayerRef]uint64{},
	}
	if r.m, r.o, err = setupState(cfg, seed); err != nil {
		return nil, err
	}
	r.gen = newLoadGen(cfg, seed, w.dense, w.hot, w.coldEvery)
	r.dig = newStateDigests(cfg, r.o.Layout)
	var inner storage.Backend
	if w.objstore {
		obj := storage.NewObjStore()
		obj.SetFlakeEvery(w.flakeEvery)
		r.raw = obj
		// The link sits below Retry, so every attempt, a retried one too,
		// pays its latency and bandwidth; the meter above Retry counts
		// each logical request and byte once.
		r.link = &pacer{perOp: w.perOp, bytesPerSec: w.bytesPerSec}
		r.retry = storage.NewRetry(&meteredBackend{inner: obj, pace: r.link}, int64(seed))
		r.retry.Base = time.Millisecond
		inner = r.retry
	} else {
		r.raw = storage.NewMem()
		inner = r.raw
	}
	r.mb = &meteredBackend{inner: inner, timed: tr != nil}
	r.newSaver()
	r.res.setup = time.Since(t0)
	return r, nil
}

// discard releases a round that will not run (an extra setup sample).
func (r *round) discard() {
	if r.saver != nil {
		_ = r.saver.Wait() // nothing was saved, so there is nothing to fail
	}
}

func (r *round) newSaver() {
	if r.w.lazy {
		r.saver = ckpt.NewLazyAsyncSaver(r.mb, 2, ckpt.CaptureOptions{Workers: r.workers, SpoolBytes: 64 << 20})
	}
}

// call times one call into a layer, as a span when tracing.
func (r *round) call(name string, f func() error) (time.Duration, error) {
	r.tr.begin(name)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	r.tr.end()
	r.st.sample(name, float64(d.Nanoseconds())/1e6)
	if err != nil {
		err = fmt.Errorf("%s: %w", name, err)
	}
	return d, err
}

// crashPlan picks, from the seed and the round index, which events a
// crash follows and how many steps after the event it strikes: one crash
// in each of crashes equal segments of the events. Recovery cost depends
// on where a crash lands (xor chain depth, writes still queued), so each
// round of an untraced run draws new points and its recover_p50_ms spans
// many. The
// segments skip the first two events and leave more than keepLast events
// after the last crash, so the checkpoints at rest when a round ends never
// straddle a recovery. A segment of five or more events keeps crashes at
// least three events apart, so every parity merge finds both halves saved
// at one world size.
func (r *round) crashPlan() map[int]int {
	plan := map[int]int{}
	lo, hi := 2, r.w.events-r.w.keepLast-1
	seg := (hi - lo) / r.w.crashes
	s := splitmix(r.seed ^ 0xc4a5 ^ uint64(r.index)<<32)
	for k := 0; k < r.w.crashes; k++ {
		start := lo + k*seg
		ev := start + 1 + int(s.next()%uint64(max(seg-2, 1)))
		plan[ev] = 1 + int(s.next()%uint64(r.w.interval-1))
	}
	return plan
}

// run executes the timed phase and the correctness gate after it.
func (r *round) run() error {
	plan := r.crashPlan()
	before, linkBefore := r.mb.counters(), r.link.busy()
	start := time.Now()
	r.tr.begin("round")
	err := r.timed(plan)
	r.tr.end()
	r.res.run = time.Since(start)
	r.res.link = r.link.busy() - linkBefore
	if err != nil {
		return err
	}
	io := r.mb.counters().sub(before)
	r.res.io = io
	r.res.eventBytes = io.bytesWritten - r.recoverBytes
	if r.retry != nil {
		r.res.retries = r.retry.Retries()
	}
	if r.bd != nil {
		if err := r.layerDeltas(); err != nil {
			return err
		}
	}
	return r.gate()
}

func (r *round) timed(plan map[int]int) error {
	for ev := 0; ev < r.w.events; ev++ {
		if err := r.train(r.w.interval); err != nil {
			return err
		}
		if err := r.checkpoint(); err != nil {
			return err
		}
		if after, ok := plan[ev]; ok {
			if err := r.train(after); err != nil {
				return err
			}
			if err := r.recover(); err != nil {
				return err
			}
		}
	}
	// Final drain: the last save's capture, then every background write.
	if err := r.waitCaptured(); err != nil {
		return err
	}
	if r.saver != nil {
		_, err := r.call("ckpt.drain", r.saver.Wait)
		r.res.capture = addCapture(r.res.capture, r.saver.CaptureStats())
		r.saver = nil
		return err
	}
	return nil
}

// train runs n optimizer steps on the generated gradients.
func (r *round) train(n int) error {
	for i := 0; i < n; i++ {
		r.step++
		grads := r.gen.grads(r.step)
		// Lazy capture overlaps the gradient computation above; the step
		// below mutates the live state, so capture must have landed.
		if err := r.waitCaptured(); err != nil {
			return err
		}
		if _, err := r.call("optim.step", func() error { return r.o.Step(lr, grads) }); err != nil {
			return err
		}
	}
	return nil
}

// waitCaptured closes a pending lazy save's stall: Save + Retain + this wait.
func (r *round) waitCaptured() error {
	if !r.pending {
		return nil
	}
	d, err := r.call("ckpt.capture.wait", r.saver.WaitCaptured)
	r.pending = false
	r.res.stalls = append(r.res.stalls, ms(r.pendingStall+d))
	return err
}

// checkpoint is one checkpoint event: save, then retention, both on the
// training goroutine.
func (r *round) checkpoint() error {
	r.tr.begin("event")
	defer r.tr.end()
	var layers []modelcfg.LayerRef
	name := "full"
	if r.w.parity {
		layers = strategy.Parity{}.Layers(strategy.Context{SaveIndex: r.saveIdx, Step: r.step, Config: r.cfg})
		name = "parity"
	}
	dir := runRoot + "/" + ckpt.DirName(r.step)
	spec := ckpt.SaveSpec{
		Dir: dir, Model: r.m, Optim: r.o, WorldSize: r.world, Layers: layers, Strategy: name,
		State: ckpt.TrainerState{
			Step: r.step, LR: lr, Task: "perfbench", Seed: r.seed,
			TotalSteps: r.w.events * r.w.interval, BaseLR: lr,
		},
		Dedup: r.w.dedup, Codec: r.w.codec,
	}
	// Correctness gate: what this save must restore to.
	if r.w.parity {
		for ref, d := range r.dig.layers(r.m, r.o, layers) {
			r.newest[ref] = d
		}
	} else {
		r.wholeAt[r.step] = r.dig.whole(r.m, r.o)
	}

	r.res.attempted++
	var save time.Duration
	var err error
	if r.saver != nil {
		spec.LayerGens = r.o.LayerGens()
		save, err = r.call("ckpt.capture.schedule", func() error { return r.saver.Save(spec) })
	} else {
		save, err = r.call("ckpt.save", func() error { return ckpt.Save(r.mb, spec) })
	}
	if err != nil {
		r.res.failed++
		return err
	}
	var rep *ckpt.RetainReport
	retain, err := r.call("ckpt.retain", func() (e error) {
		rep, e = ckpt.Retain(r.mb, runRoot, r.w.keepLast, false)
		return e
	})
	if err != nil {
		return err
	}
	r.st.sample("ckpt.retain.blobs_swept", float64(len(rep.RemovedBlobs)))
	r.st.sample("ckpt.retain.bytes_freed", float64(rep.BytesFreed))
	r.saveIdx++
	r.res.events++
	r.history = append(r.history, dir)
	if r.saver != nil {
		r.pending, r.pendingStall = true, save+retain
	} else {
		r.res.stalls = append(r.res.stalls, ms(save+retain))
	}
	if r.bd != nil {
		return r.layerDeltas()
	}
	return nil
}

// recover crashes the run and brings it back: drain background writes,
// drop the live state, repair the run root, rebuild a complete checkpoint
// where the workload needs one, restore and verify.
func (r *round) recover() error {
	r.tr.begin("recover")
	defer r.tr.end()
	t0 := time.Now()
	if r.saver != nil {
		if _, err := r.call("ckpt.flush", r.saver.Flush); err != nil {
			return err
		}
		r.res.capture = addCapture(r.res.capture, r.saver.CaptureStats())
		err := r.saver.Wait()
		r.saver = nil
		if err != nil {
			return fmt.Errorf("async saves before crash: %w", err)
		}
	}
	crashStep := r.step
	r.m, r.o = nil, nil
	written := r.mb.bytesWritten.Load()

	var rep *ckpt.RepairReport
	if _, err := r.call("ckpt.repair", func() (e error) { rep, e = ckpt.Repair(r.mb, runRoot); return e }); err != nil {
		return err
	}
	dir := rep.Latest
	if r.w.parity {
		var err error
		if dir, err = r.rebuild(crashStep); err != nil {
			return err
		}
	}
	r.res.attempted++
	var c *ckpt.Checkpoint
	_, err := r.call("ckpt.restore", func() (e error) {
		r.m, r.o, c, e = ckpt.Restore(r.mb, dir, tensor.BF16)
		return e
	})
	if err != nil {
		r.res.failed++
		return err
	}
	if err := r.verifyRestored(c.State.Step); err != nil {
		r.res.failed++
		return err
	}
	r.step = c.State.Step
	r.res.recovers = append(r.res.recovers, ms(time.Since(t0)))
	r.recoverBytes += r.mb.bytesWritten.Load() - written
	if r.w.parity {
		if err := r.mb.Remove(recoverRoot); err != nil {
			return fmt.Errorf("remove recovery outputs: %w", err)
		}
	}
	r.newSaver()
	return nil
}

// rebuild is the parity recovery path: plan a merge of the newest copy of
// every layer, merge, and reshard the result to the other world size.
func (r *round) rebuild(crashStep int) (string, error) {
	merged, resharded := recoverRoot+"/merged", recoverRoot+"/resharded"
	var rec *recipe.Recipe
	if _, err := r.call("recipe.plan", func() (e error) {
		rec, e = recipe.FromManifests(r.mb, runRoot, crashStep, r.cfg, merged)
		return e
	}); err != nil {
		return "", err
	}
	r.res.attempted++
	var mst *tailor.Stats
	if _, err := r.call("tailor.merge", func() (e error) {
		mst, e = tailor.Merge(r.mb, rec, tailor.Options{Workers: r.workers})
		return e
	}); err != nil {
		r.res.failed++
		return "", err
	}
	r.st.add("tailor.tensors_raw_copied", float64(mst.TensorsRawCopied))
	r.st.add("tailor.tensors_read", float64(mst.TensorsRead))
	r.st.sample("tailor.bytes_read", float64(mst.BytesRead))
	r.st.sample("tailor.peak_inflight_bytes", float64(mst.PeakInFlightBytes))

	next := r.w.reshardWorld
	if r.world == r.w.reshardWorld {
		next = r.w.world
	}
	r.res.attempted++
	var rs *reshard.Stats
	if _, err := r.call("reshard", func() (e error) {
		rs, e = reshard.Reshard(r.mb, merged, resharded, next, reshard.Options{Workers: r.workers, NoLatest: true})
		return e
	}); err != nil {
		r.res.failed++
		return "", err
	}
	r.st.add("reshard.groups_raw_copied", float64(rs.GroupsRawCopied))
	r.st.add("reshard.groups", float64(rs.Groups))
	r.world = next
	return resharded, nil
}

// verifyRestored checks the restored state against what was saved: the
// whole state of the restored step, or for a parity merge each layer's
// newest saved copy.
func (r *round) verifyRestored(step int) error {
	if r.o.StepCount != step {
		return fmt.Errorf("restored optimizer at step %d, checkpoint step %d", r.o.StepCount, step)
	}
	if r.w.parity {
		for ref, want := range r.newest {
			if got := r.dig.layer(r.m, r.o, ref); got != want {
				return fmt.Errorf("restored %s differs from its newest saved copy", ref)
			}
		}
		if len(r.newest) != len(r.cfg.AllLayers()) {
			return fmt.Errorf("only %d of %d layers were ever saved", len(r.newest), len(r.cfg.AllLayers()))
		}
		return nil
	}
	want, ok := r.wholeAt[step]
	if !ok {
		return fmt.Errorf("restored step %d was never saved", step)
	}
	if got := r.dig.whole(r.m, r.o); got != want {
		return fmt.Errorf("restored state at step %d differs from the saved state", step)
	}
	return nil
}

// gate checks the run root after the timed phase: every checkpoint
// committed and nothing for a full GC to reclaim.
func (r *round) gate() error {
	dirs, err := ckpt.Scan(r.raw, runRoot)
	if err != nil {
		return err
	}
	if len(dirs) == 0 {
		return fmt.Errorf("gate: no checkpoint at rest")
	}
	for _, d := range dirs {
		if d.State != ckpt.StateCommitted {
			return fmt.Errorf("gate: %s is %s (%s)", d.Path, d.State, d.Detail)
		}
	}
	gc, err := ckpt.GCDryRun(r.raw, runRoot)
	if err != nil {
		return err
	}
	if n := len(gc.RemovedBlobs) + len(gc.RemovedStaging) + len(gc.IndexRetired) + len(gc.IndexRepaired); n > 0 {
		return fmt.Errorf("gate: full GC would reclaim %d blobs (%d bytes), %d staging entries and fix %d+%d index records",
			len(gc.RemovedBlobs), gc.BytesFreed, len(gc.RemovedStaging), len(gc.IndexRetired), len(gc.IndexRepaired))
	}
	if r.raw.Exists(recoverRoot) {
		return fmt.Errorf("gate: recovery outputs left behind under %s", recoverRoot)
	}
	r.res.stored, err = storedBytes(r.raw, "")
	return err
}

// layerDeltas takes ckpt.LayerDelta of every saved checkpoint that is now
// committed, against the previous save of the same layers, and folds the
// rows into the per-model-layer breakdown. Breakdown rounds only.
func (r *round) layerDeltas() error {
	if !r.raw.Exists(runRoot) {
		return nil // the first lazy save has not landed yet
	}
	listed, err := ckpt.List(r.raw, runRoot)
	if err != nil {
		return err
	}
	committed := map[string]bool{}
	for _, d := range listed {
		committed[d] = true
	}
	stride := 1
	if r.w.parity {
		stride = 2
	}
	for ; r.deltaNext < len(r.history); r.deltaNext++ {
		i := r.deltaNext
		if !committed[r.history[i]] {
			return nil // still being written; try again at the next event
		}
		prev := ""
		if i >= stride {
			if prev = r.history[i-stride]; !committed[prev] {
				r.bd.add("ckpt.layer_delta.skipped", 1)
				continue
			}
		}
		rows, err := ckpt.LayerDelta(r.raw, r.history[i], prev)
		if err != nil {
			return err
		}
		r.bd.addDelta(rows)
	}
	return nil
}

// storedBytes sums every object's size under dir.
func storedBytes(b storage.Backend, dir string) (int64, error) {
	names, err := b.List(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, n := range names {
		p := path.Join(dir, n)
		if strings.HasSuffix(n, "/") {
			sub, err := storedBytes(b, p)
			if err != nil {
				return 0, err
			}
			total += sub
			continue
		}
		size, err := b.Stat(p)
		if err != nil {
			return 0, err
		}
		total += size
	}
	return total, nil
}

func addCapture(a, b ckpt.CaptureStats) ckpt.CaptureStats {
	a.Saves += b.Saves
	a.LayersReused += b.LayersReused
	a.PayloadsSpooled += b.PayloadsSpooled
	a.PayloadsReferenced += b.PayloadsReferenced
	a.BytesHashed += b.BytesHashed
	a.BytesSpooled += b.BytesSpooled
	a.BytesReferenced += b.BytesReferenced
	return a
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
