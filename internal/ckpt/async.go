package ckpt

import (
	"fmt"
	"sync"
	"time"

	"llmtailor/internal/parallel"
	"llmtailor/internal/storage"
)

// AsyncSaver overlaps checkpoint writes with continued training, in the
// spirit of CheckFreq/DataStates-LLM (§6.1 of the paper — optimizations the
// paper notes are composable with partial checkpointing). It runs in one of
// two modes:
//
// Snapshot mode (NewAsyncSaver): Save deep-copies the model and optimizer
// synchronously — the stall is O(model size) — and a background goroutine
// serialises and writes the copy through the same ordered pipeline
// primitive the merge engine uses.
//
// Lazy capture mode (NewLazyAsyncSaver): Save only enumerates the
// checkpoint and enqueues per-layer capture units; workers drain each layer
// out of the live state into pooled spools (or straight to a manifest
// reference when the content already exists as a blob), and the caller
// blocks in WaitCaptured — typically after computing the next gradients —
// only until the changed layers are landed. The stall is O(changed layers).
//
// At most `depth` writes may be in flight; further Saves block, bounding
// memory at depth+1 state copies (snapshot mode) or the capture engine's
// spool budget (lazy mode).
type AsyncSaver struct {
	pipe *parallel.Pipeline[asyncJob, error]
	eng  *captureEngine

	mu   sync.Mutex
	errs []error
	done bool
}

// asyncJob is one enqueued save: a snapshot-mode spec (ticket nil), a
// lazy-mode capture ticket, or a flush sentinel.
type asyncJob struct {
	spec   SaveSpec
	ticket *captureTicket
	flush  chan struct{}
}

// NewAsyncSaver starts a snapshot-mode saver over the backend with the
// given in-flight depth (minimum 1).
func NewAsyncSaver(b storage.Backend, depth int) *AsyncSaver {
	return newSaver(b, depth, nil)
}

// NewLazyAsyncSaver starts a lazy-capture saver: saves stream per-layer
// out of the live state instead of snapshotting it. Callers must not
// mutate the model or optimizer between Save and the next WaitCaptured.
func NewLazyAsyncSaver(b storage.Backend, depth int, opts CaptureOptions) *AsyncSaver {
	return newSaver(b, depth, newCaptureEngine(b, opts))
}

func newSaver(b storage.Backend, depth int, eng *captureEngine) *AsyncSaver {
	if depth < 1 {
		depth = 1
	}
	s := &AsyncSaver{eng: eng}
	// The pipeline's own error channel would abort on the first failure;
	// checkpoint saves must instead attempt every write and report the
	// combined outcome, so failures travel as values into the sink.
	s.pipe = parallel.NewPipeline(1, depth-1,
		func(j asyncJob) (error, error) {
			if j.flush != nil {
				close(j.flush)
				return nil, nil
			}
			var err error
			if j.ticket != nil {
				err = s.eng.write(j.ticket)
			} else {
				err = Save(b, j.spec)
			}
			if err != nil {
				return fmt.Errorf("ckpt: async save %s: %w", j.spec.Dir, err), nil
			}
			return nil, nil
		},
		func(saveErr error) error {
			if saveErr != nil {
				s.mu.Lock()
				s.errs = append(s.errs, saveErr)
				s.mu.Unlock()
			}
			return nil
		})
	return s
}

// Save enqueues one checkpoint write. In snapshot mode it deep-copies the
// spec's live state first; the caller may mutate model and optimizer as
// soon as Save returns. In lazy mode it only schedules per-layer capture:
// the caller must call WaitCaptured before the next mutation. Save is safe
// to race with Wait: a Save that loses the race reports an error instead
// of panicking on a closed queue.
func (s *AsyncSaver) Save(spec SaveSpec) error {
	if s.eng != nil {
		return s.saveLazy(spec)
	}
	// Snapshot: deep-copy model and optimizer so training can continue.
	modelCopy := spec.Model.Clone()
	spec.Optim = spec.Optim.Clone(modelCopy)
	spec.Model = modelCopy
	if err := s.pipe.Push(asyncJob{spec: spec}); err != nil {
		return fmt.Errorf("ckpt: async save after Wait")
	}
	return nil
}

func (s *AsyncSaver) saveLazy(spec SaveSpec) error {
	start := time.Now()
	t, err := s.eng.schedule(spec)
	if err != nil {
		return err
	}
	if err := s.pipe.Push(asyncJob{spec: spec, ticket: t}); err != nil {
		s.eng.abandon(t)
		return fmt.Errorf("ckpt: async save after Wait")
	}
	s.eng.addStall(int64(time.Since(start)))
	return nil
}

// Flush blocks until every save enqueued so far has been fully written
// (committed or failed — failures surface through Wait). Unlike Wait the
// saver stays usable. Callers that retire or sweep old checkpoints while
// a save is in flight can Flush first so the new save's ref record is on
// disk before the sweep scans.
func (s *AsyncSaver) Flush() error {
	ch := make(chan struct{})
	if err := s.pipe.Push(asyncJob{flush: ch}); err != nil {
		return fmt.Errorf("ckpt: flush after Wait")
	}
	<-ch
	return nil
}

// WaitCaptured blocks until every in-flight save has finished reading the
// live model and optimizer state — the point after which the caller may
// mutate them again. Snapshot mode copies eagerly, so it returns
// immediately. The first capture failure is returned early (the combined
// Wait error reports it too).
func (s *AsyncSaver) WaitCaptured() error {
	if s.eng == nil {
		return nil
	}
	start := time.Now()
	err := s.eng.waitCaptured()
	s.eng.addStall(int64(time.Since(start)))
	return err
}

// CaptureStats reports the lazy engine's accounting (zero value in
// snapshot mode).
func (s *AsyncSaver) CaptureStats() CaptureStats {
	if s.eng == nil {
		return CaptureStats{}
	}
	return s.eng.snapshot()
}

// Wait drains all pending writes and returns the combined error of every
// failed save. The saver cannot be reused afterwards; Wait is idempotent.
func (s *AsyncSaver) Wait() error {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return s.combinedErr()
	}
	s.done = true
	s.mu.Unlock()

	// Drain capture before the write stage: every scheduled unit lands (or
	// fails its ticket), then the ordered writes consume the tickets.
	if s.eng != nil {
		if err := s.eng.close(); err != nil {
			s.mu.Lock()
			s.errs = append(s.errs, err)
			s.mu.Unlock()
		}
	}
	if err := s.pipe.Close(); err != nil {
		s.mu.Lock()
		s.errs = append(s.errs, err)
		s.mu.Unlock()
	}
	if s.eng != nil {
		s.eng.dropParents()
	}
	return s.combinedErr()
}

func (s *AsyncSaver) combinedErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.errs) == 0 {
		return nil
	}
	if len(s.errs) == 1 {
		return s.errs[0]
	}
	return fmt.Errorf("ckpt: %d async saves failed, first: %w", len(s.errs), s.errs[0])
}
