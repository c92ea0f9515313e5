// Command perfbench is the repository's end-to-end checkpoint benchmark.
// A seeded load generator trains a simulated Llama-3.1-8B, checkpoints it
// every few steps with keep-last retention, crashes at seeded points and
// recovers, calling ckpt, storage, recipe, tailor and reshard in the order
// train.Trainer does and timing each call from outside. See README.md.
//
//	go run . --workload sparse-lazy --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"llmtailor/internal/ckpt"
)

// minRounds is the fewest rounds a run makes, whatever --seconds says:
// three untraced rounds give the stall percentiles more than 100 events.
// The byte metrics come from these first rounds only, so they repeat
// exactly for a seed however many rounds the time allows.
// minSetups is the fewest setup_s samples; setups beyond the rounds' own
// are built and discarded.
const (
	minRounds = 3
	minSetups = 9
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runAgg pools what a run's rounds measured.
type runAgg struct {
	setups            []float64 // s, every round plus the extra setups
	runs              []float64 // s, untraced rounds
	linkS             float64   // s of object store link time, untraced rounds
	tracedRuns        []float64 // s, traced rounds
	stalls, recovers  []float64 // ms, untraced rounds
	events            int
	byteEvents        int   // events of the first minRounds rounds
	eventBytes        int64 // bytes those events wrote
	stored            []float64
	attempted, failed int
	tracedEvents      int
	tracedIO          ioCounters
	tracedRetries     int64
	capture           ckpt.CaptureStats
}

func (a *runAgg) add(res roundResult, index int, traced bool) {
	a.attempted += res.attempted
	a.failed += res.failed
	a.setups = append(a.setups, res.setup.Seconds())
	if traced {
		a.tracedRuns = append(a.tracedRuns, res.run.Seconds())
		a.tracedEvents += res.events
		a.tracedIO = a.tracedIO.add(res.io)
		a.tracedRetries += res.retries
		a.capture = addCapture(a.capture, res.capture)
		return
	}
	a.runs = append(a.runs, res.run.Seconds())
	a.linkS += res.link.Seconds()
	a.stalls = append(a.stalls, res.stalls...)
	a.recovers = append(a.recovers, res.recovers...)
	a.events += res.events
	if index < minRounds {
		a.byteEvents += res.events
		a.eventBytes += res.eventBytes
		a.stored = append(a.stored, float64(res.stored))
	}
}

func main() { os.Exit(run()) }

func run() int {
	workloadName := flag.String("workload", "", "workload: sparse-lazy, dense-sync or parity-merge-objstore")
	seed := flag.Uint64("seed", 1, "workload seed: load pattern, gradients and crash points")
	seconds := flag.Int("seconds", 40, "measuring time; rounds repeat until it is spent (at least 3 rounds)")
	traceFlag := flag.Int("trace", 0, "1 = traced run: per-layer metrics, trace file and per-layer byte breakdown")
	outDir := flag.String("out", ".bench_build/perfbench/out", "directory for the trace and the per-layer breakdown")
	flag.Parse()
	w, err := workloadByName(*workloadName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	traced := *traceFlag == 1
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	// Capture, merge and reshard worker pools; never more than nproc.
	workers := min(2, nproc)

	var tr *tracer
	var st *layerStats
	if traced {
		tr, st = newTracer(), newLayerStats()
	}
	agg := &runAgg{}
	budget := time.Duration(*seconds) * time.Second
	start := time.Now()
	// A traced run of a dedup workload ends with a breakdown round, so
	// another round starts only if it and the breakdown round still fit.
	breakdown := traced && w.dedup
	ahead := time.Duration(1)
	if breakdown {
		ahead = 2
	}
	var runErr error
	i := 0
	for ; ; i++ {
		// A traced run alternates untraced and traced rounds, so the
		// tracing overhead is measured within one process. Each traced
		// round repeats the crash points of the untraced round before it.
		tracedRound := traced && i%2 == 1
		plan := i
		if traced {
			plan = i / 2
		}
		rtr, rst := (*tracer)(nil), (*layerStats)(nil)
		if tracedRound {
			rtr, rst = tr, st
		}
		runtime.GC() // start every round from a settled heap
		r, err := newRound(w, *seed, plan, workers, rtr, rst)
		if err == nil {
			err = r.run()
			agg.add(r.res, i, tracedRound)
		}
		if err != nil {
			runErr = fmt.Errorf("round %d: %w", i+1, err)
			break
		}
		done := i + 1
		if elapsed := time.Since(start); done >= minRounds && elapsed+ahead*elapsed/time.Duration(done) > budget {
			break
		}
	}
	if runErr == nil && breakdown {
		// The per-model-layer breakdown: one more round, untimed, that
		// takes ckpt.LayerDelta after every event.
		runtime.GC()
		r, err := newRound(w, *seed, i+1, workers, nil, nil)
		if err == nil {
			r.bd = st
			err = r.run()
			agg.attempted += r.res.attempted
			agg.failed += r.res.failed
		}
		if err != nil {
			runErr = fmt.Errorf("breakdown round: %w", err)
		}
	}

	for runErr == nil && len(agg.setups) < minSetups {
		runtime.GC()
		r, err := newRound(w, *seed, 0, workers, nil, nil)
		if err != nil {
			runErr = err
			break
		}
		r.discard()
		agg.setups = append(agg.setups, r.res.setup.Seconds())
	}

	info := map[string]any{
		"workload": w.name, "seed": *seed, "trace": traced, "seconds": *seconds,
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": nproc,
		"cpu": cpuModel(), "workers": workers, "params": w.params(),
		"rounds_untraced": len(agg.runs), "rounds_traced": len(agg.tracedRuns),
		"round_run_s": agg.runs, "round_traced_run_s": agg.tracedRuns, "round_setup_s": agg.setups,
		"events": agg.events, "stall_samples": len(agg.stalls), "recover_samples": len(agg.recovers),
	}
	if w.objstore {
		// The share of the untraced rounds' wall time the link was busy.
		info["link_share"] = safeDiv(agg.linkS, sum(agg.runs))
	}
	res := result{Attempted: max(agg.attempted, 1), Failed: agg.failed, Metrics: map[string]metric{}}
	if traced {
		res.Metrics = perLayerMetrics(agg, st)
		info["trace_overhead_ms"] = res.Metrics["trace.overhead_ms"].Value
		if runErr == nil {
			base := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d", w.name, *seed))
			runErr = errors.Join(
				tr.write(base+".trace.json"),
				writeJSON(base+".layers.json", map[string]any{"workload": w.name, "seed": *seed, "layers": st.breakdown()}))
			info["trace_file"] = base + ".trace.json"
			info["layers_file"] = base + ".layers.json"
		}
	} else {
		res.Metrics = endToEndMetrics(agg)
	}
	res.Correct = runErr == nil && agg.failed == 0
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", runErr)
		info["error"] = runErr.Error()
	}
	printJSON(map[string]any{"info": info})
	printJSON(res)
	if !res.Correct {
		return 1
	}
	return 0
}

func endToEndMetrics(a *runAgg) map[string]metric {
	return map[string]metric{
		"setup_s":        {quantile(a.setups, 0.5), "s"},
		"run_s":          {quantile(a.runs, 0.5), "s"},
		"stall_p50_ms":   {quantile(a.stalls, 0.5), "ms"},
		"stall_p90_ms":   {quantile(a.stalls, 0.9), "ms"},
		"recover_p50_ms": {quantile(a.recovers, 0.5), "ms"},
		"bytes_per_ckpt": {safeDiv(float64(a.eventBytes), float64(a.byteEvents)), "B"},
		"stored_bytes":   {quantile(a.stored, 0.5), "B"},
	}
}

func perLayerMetrics(a *runAgg, s *layerStats) map[string]metric {
	c := a.capture
	ev := float64(a.tracedEvents)
	// Traced round k repeats the crash points of untraced round k, so the
	// overhead is the median difference over those pairs. The first pair
	// is left out when there are others: its untraced round warms the
	// process up (first page touches, heap growth).
	var overhead []float64
	for k, traced := range a.tracedRuns {
		overhead = append(overhead, (traced-a.runs[k])*1e3)
	}
	if len(overhead) > 1 {
		overhead = overhead[1:]
	}
	io := a.tracedIO
	return map[string]metric{
		"optim.step_ms":              {s.median("optim.step"), "ms"},
		"ckpt.save_ms":               {s.median("ckpt.save"), "ms"},
		"ckpt.capture.schedule_ms":   {s.median("ckpt.capture.schedule"), "ms"},
		"ckpt.capture.wait_ms":       {s.median("ckpt.capture.wait"), "ms"},
		"ckpt.capture.layers_reused": {safeDiv(float64(c.LayersReused), float64(c.Saves)), "count"},
		"ckpt.capture.bytes_hashed":  {safeDiv(float64(c.BytesHashed), float64(c.Saves)), "B"},
		"ckpt.capture.bytes_spooled": {safeDiv(float64(c.BytesSpooled), float64(c.Saves)), "B"},
		"ckpt.capture.reuse_ratio": {safeDiv(float64(c.PayloadsReferenced),
			float64(c.PayloadsReferenced+c.PayloadsSpooled)), "ratio"},
		"ckpt.flush_ms":              {s.median("ckpt.flush"), "ms"},
		"ckpt.retain_ms":             {s.median("ckpt.retain"), "ms"},
		"ckpt.retain.blobs_swept":    {s.mean("ckpt.retain.blobs_swept"), "count"},
		"ckpt.retain.bytes_freed":    {s.mean("ckpt.retain.bytes_freed"), "B"},
		"ckpt.repair_ms":             {s.median("ckpt.repair"), "ms"},
		"ckpt.restore_ms":            {s.median("ckpt.restore"), "ms"},
		"ckpt.layers_rewritten":      {s.mean("ckpt.layers_rewritten"), "count"},
		"ckpt.layers_reused":         {s.mean("ckpt.layers_reused"), "count"},
		"storage.requests":           {safeDiv(float64(io.requests), ev), "count"},
		"storage.write_ms":           {safeDiv(float64(io.writeNs)/1e6, ev), "ms"},
		"storage.read_ms":            {safeDiv(float64(io.readNs)/1e6, ev), "ms"},
		"storage.meta_ms":            {safeDiv(float64(io.metaNs)/1e6, ev), "ms"},
		"storage.bytes_written":      {safeDiv(float64(io.bytesWritten), ev), "B"},
		"storage.bytes_read":         {safeDiv(float64(io.bytesRead), ev), "B"},
		"storage.retries":            {safeDiv(float64(a.tracedRetries), ev), "count"},
		"recipe.plan_ms":             {s.median("recipe.plan"), "ms"},
		"tailor.merge_ms":            {s.median("tailor.merge"), "ms"},
		"tailor.raw_copy_ratio":      {s.ratio("tailor.tensors_raw_copied", "tailor.tensors_read"), "ratio"},
		"tailor.bytes_read":          {s.mean("tailor.bytes_read"), "B"},
		"tailor.peak_inflight_bytes": {s.max("tailor.peak_inflight_bytes"), "B"},
		"reshard.ms":                 {s.median("reshard"), "ms"},
		"reshard.splice_ratio":       {s.ratio("reshard.groups_raw_copied", "reshard.groups"), "ratio"},
		"trace.overhead_ms":          {quantile(overhead, 0.5), "ms"},
	}
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	fmt.Println(string(data))
}

// cpuModel names the processor for the environment record.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
