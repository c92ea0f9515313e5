package main

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"llmtailor/internal/storage"
)

// meteredBackend is the benchmark's storage.Backend decorator. It always
// counts requests and payload bytes (bytes_per_ckpt needs them on untraced
// runs too); with timed set it also accumulates wall time per operation
// class. With a pacer it is instead the object store's link: every request
// pays a fixed latency plus bandwidth, and its counters go unread.
//
// One request is one Backend call; a stream (Create, Open, OpenRange) is
// one request however many Read or Write calls drain it.
type meteredBackend struct {
	inner storage.Backend
	timed bool
	pace  *pacer

	requests     atomic.Int64
	bytesWritten atomic.Int64
	bytesRead    atomic.Int64
	writeNs      atomic.Int64
	readNs       atomic.Int64
	metaNs       atomic.Int64
}

// ioCounters is a point-in-time copy of a meteredBackend's counters.
type ioCounters struct {
	requests, bytesWritten, bytesRead int64
	writeNs, readNs, metaNs           int64
}

func (c ioCounters) add(o ioCounters) ioCounters {
	return ioCounters{
		c.requests + o.requests, c.bytesWritten + o.bytesWritten, c.bytesRead + o.bytesRead,
		c.writeNs + o.writeNs, c.readNs + o.readNs, c.metaNs + o.metaNs,
	}
}

func (c ioCounters) sub(o ioCounters) ioCounters {
	return c.add(ioCounters{-o.requests, -o.bytesWritten, -o.bytesRead, -o.writeNs, -o.readNs, -o.metaNs})
}

func (m *meteredBackend) counters() ioCounters {
	return ioCounters{
		m.requests.Load(), m.bytesWritten.Load(), m.bytesRead.Load(),
		m.writeNs.Load(), m.readNs.Load(), m.metaNs.Load(),
	}
}

// start opens one request: counts it, pays its latency and returns the
// start time when timing is on.
func (m *meteredBackend) start() time.Time {
	m.requests.Add(1)
	var t0 time.Time
	if m.timed {
		t0 = time.Now()
	}
	m.pace.charge(1, 0)
	return t0
}

func (m *meteredBackend) done(acc *atomic.Int64, t0 time.Time) {
	if m.timed {
		acc.Add(int64(time.Since(t0)))
	}
}

func (m *meteredBackend) WriteFile(name string, data []byte) error {
	t0 := m.start()
	m.pace.charge(0, int64(len(data)))
	err := m.inner.WriteFile(name, data)
	m.bytesWritten.Add(int64(len(data)))
	m.done(&m.writeNs, t0)
	return err
}

func (m *meteredBackend) ReadFile(name string) ([]byte, error) {
	t0 := m.start()
	data, err := m.inner.ReadFile(name)
	m.pace.charge(0, int64(len(data)))
	m.bytesRead.Add(int64(len(data)))
	m.done(&m.readNs, t0)
	return data, err
}

func (m *meteredBackend) Create(name string) (io.WriteCloser, error) {
	t0 := m.start()
	w, err := m.inner.Create(name)
	m.done(&m.writeNs, t0)
	if err != nil {
		return nil, err
	}
	return &meteredWriter{m: m, w: w}, nil
}

func (m *meteredBackend) Open(name string) (io.ReadCloser, error) {
	t0 := m.start()
	r, err := m.inner.Open(name)
	m.done(&m.readNs, t0)
	if err != nil {
		return nil, err
	}
	return &meteredReader{m: m, r: r}, nil
}

func (m *meteredBackend) OpenRange(name string, off, n int64) (io.ReadCloser, error) {
	t0 := m.start()
	r, err := m.inner.OpenRange(name, off, n)
	m.done(&m.readNs, t0)
	if err != nil {
		return nil, err
	}
	return &meteredReader{m: m, r: r}, nil
}

func (m *meteredBackend) ReadAt(name string, off int64, p []byte) error {
	t0 := m.start()
	m.pace.charge(0, int64(len(p)))
	err := m.inner.ReadAt(name, off, p)
	m.bytesRead.Add(int64(len(p)))
	m.done(&m.readNs, t0)
	return err
}

func (m *meteredBackend) Stat(name string) (int64, error) {
	t0 := m.start()
	n, err := m.inner.Stat(name)
	m.done(&m.metaNs, t0)
	return n, err
}

func (m *meteredBackend) List(dir string) ([]string, error) {
	t0 := m.start()
	names, err := m.inner.List(dir)
	m.done(&m.metaNs, t0)
	return names, err
}

func (m *meteredBackend) Exists(name string) bool {
	t0 := m.start()
	ok := m.inner.Exists(name)
	m.done(&m.metaNs, t0)
	return ok
}

func (m *meteredBackend) Remove(name string) error {
	t0 := m.start()
	err := m.inner.Remove(name)
	m.done(&m.metaNs, t0)
	return err
}

func (m *meteredBackend) Rename(oldName, newName string) error {
	t0 := m.start()
	err := m.inner.Rename(oldName, newName)
	m.done(&m.metaNs, t0)
	return err
}

// RenameSupported and ComposeSupported forward the wrapped backend's
// capabilities, which the commit protocol branches on.
func (m *meteredBackend) RenameSupported() bool  { return storage.RenameSupported(m.inner) }
func (m *meteredBackend) ComposeSupported() bool { return storage.ComposeSupported(m.inner) }

// Compose forwards multipart completion as one write request.
func (m *meteredBackend) Compose(dst string, parts ...string) error {
	t0 := m.start()
	err := storage.Compose(m.inner, dst, parts...)
	m.done(&m.writeNs, t0)
	return err
}

type meteredWriter struct {
	m *meteredBackend
	w io.WriteCloser
}

func (w *meteredWriter) Write(p []byte) (int, error) {
	var t0 time.Time
	if w.m.timed {
		t0 = time.Now()
	}
	w.m.pace.charge(0, int64(len(p)))
	n, err := w.w.Write(p)
	w.m.bytesWritten.Add(int64(n))
	w.m.done(&w.m.writeNs, t0)
	return n, err
}

func (w *meteredWriter) Close() error {
	var t0 time.Time
	if w.m.timed {
		t0 = time.Now()
	}
	err := w.w.Close()
	w.m.done(&w.m.writeNs, t0)
	return err
}

type meteredReader struct {
	m *meteredBackend
	r io.ReadCloser
}

func (r *meteredReader) Read(p []byte) (int, error) {
	var t0 time.Time
	if r.m.timed {
		t0 = time.Now()
	}
	n, err := r.r.Read(p)
	r.m.pace.charge(0, int64(n))
	r.m.bytesRead.Add(int64(n))
	r.m.done(&r.m.readNs, t0)
	return n, err
}

func (r *meteredReader) Close() error { return r.r.Close() }

// paceQuantum is the smallest sleep the pacer issues. Timer resolution on
// small VMs can be a millisecond, so charging a 100µs request with its own
// sleep would cost ten times its latency; the pacer instead accrues owed
// latency and pays it in quanta, crediting any oversleep back.
const paceQuantum = 2 * time.Millisecond

// pacer charges requests a fixed latency and payload bytes a bandwidth,
// as a remote object store's link would. The owed time is shared by all
// callers, so the link behaves as one serial channel in aggregate: total
// sleep tracks requests×perOp + bytes/bandwidth.
type pacer struct {
	perOp       time.Duration
	bytesPerSec float64

	mu      sync.Mutex
	debt    time.Duration
	charged time.Duration // everything ever charged: the link's busy time
}

// busy is the link time charged so far.
func (p *pacer) busy() time.Duration {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.charged
}

func (p *pacer) charge(ops int, n int64) {
	if p == nil {
		return
	}
	d := time.Duration(ops) * p.perOp
	if n > 0 && p.bytesPerSec > 0 {
		d += time.Duration(float64(n) / p.bytesPerSec * float64(time.Second))
	}
	p.mu.Lock()
	p.debt += d
	p.charged += d
	if p.debt < paceQuantum {
		p.mu.Unlock()
		return
	}
	owe := p.debt
	p.debt = 0
	p.mu.Unlock()
	t0 := time.Now()
	time.Sleep(owe)
	over := time.Since(t0) - owe
	p.mu.Lock()
	p.debt -= over
	p.mu.Unlock()
}
