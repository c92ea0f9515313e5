package storage

import (
	"bytes"
	"io"
	"math"
	"testing"
	"time"
)

// openRangeBackends builds one of each rangeable backend over the same file.
func openRangeBackends(t *testing.T, data []byte) map[string]Backend {
	t.Helper()
	osb, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMem()
	backends := map[string]Backend{
		"os":    osb,
		"mem":   mem,
		"meter": NewMeter(NewMem(), LocalNVMe()),
		"fault": NewFault(NewMem()),
	}
	for name, b := range backends {
		if err := b.WriteFile("f", data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return backends
}

func TestOpenRangeReadsExactExtent(t *testing.T) {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 7)
	}
	for name, b := range openRangeBackends(t, data) {
		for _, ext := range [][2]int64{{0, 4096}, {100, 300}, {4095, 1}, {4096, 0}, {0, 0}} {
			r, err := b.OpenRange("f", ext[0], ext[1])
			if err != nil {
				t.Fatalf("%s: open %v: %v", name, ext, err)
			}
			got, err := io.ReadAll(r)
			r.Close()
			if err != nil {
				t.Fatalf("%s: read %v: %v", name, ext, err)
			}
			if !bytes.Equal(got, data[ext[0]:ext[0]+ext[1]]) {
				t.Fatalf("%s: extent %v delivered wrong bytes", name, ext)
			}
		}
	}
}

func TestOpenRangeRejectsEscapingExtents(t *testing.T) {
	data := make([]byte, 64)
	for name, b := range openRangeBackends(t, data) {
		for _, ext := range [][2]int64{{-1, 4}, {0, -1}, {0, 65}, {65, 0}, {60, 5}, {1 << 62, 1 << 62}} {
			if r, err := b.OpenRange("f", ext[0], ext[1]); err == nil {
				r.Close()
				t.Fatalf("%s: extent %v accepted (file is 64 bytes)", name, ext)
			}
		}
		if _, err := b.OpenRange("missing", 0, 0); err == nil {
			t.Fatalf("%s: missing file accepted", name)
		}
	}
}

// The accounting-granularity regression the raw-copy path depends on:
// draining one extent through OpenRange charges a single open latency (like
// Open), however many chunked Reads it takes — whereas the same bytes
// fetched as N ReadAt calls charge N open latencies. Both models are
// correct for their use (lazy isolated tensor reads vs. sectioned copies);
// the sectioned path must not inherit ReadAt's per-call charge.
func TestOpenRangeAmortizesOpenLatency(t *testing.T) {
	const total = 1 << 20
	const chunk = 64 << 10
	prof := Lustre()
	data := make([]byte, total)

	m := NewMeter(NewMem(), prof)
	if err := m.Backend.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}

	r, err := m.OpenRange("f", 0, total)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, chunk)
	chunks := 0
	for {
		n, err := io.ReadFull(r, buf)
		if n > 0 {
			chunks++
		}
		if err != nil {
			break
		}
	}
	r.Close()
	if chunks != total/chunk {
		t.Fatalf("drained %d chunks, want %d", chunks, total/chunk)
	}
	rangeStats := m.Stats()

	wantRange := prof.OpenLatency
	for i := 0; i < chunks; i++ {
		wantRange += prof.ReadChunkTime(chunk)
	}
	if rangeStats.SimTime != wantRange {
		t.Fatalf("OpenRange SimTime %v, want one open latency + bandwidth = %v", rangeStats.SimTime, wantRange)
	}
	if rangeStats.FilesRead != 1 || rangeStats.BytesRead != total {
		t.Fatalf("OpenRange counters %+v, want 1 file / %d bytes", rangeStats, total)
	}

	// The same extent as chunked ReadAt calls: one full ReadTime (open
	// latency included) per call.
	m.Reset()
	for off := int64(0); off < total; off += chunk {
		if err := m.ReadAt("f", off, buf); err != nil {
			t.Fatal(err)
		}
	}
	readAtStats := m.Stats()
	var wantReadAt time.Duration
	for i := 0; i < chunks; i++ {
		wantReadAt += prof.ReadTime(chunk)
	}
	if readAtStats.SimTime != wantReadAt {
		t.Fatalf("ReadAt SimTime %v, want %v", readAtStats.SimTime, wantReadAt)
	}
	if rangeStats.SimTime >= readAtStats.SimTime {
		t.Fatalf("sectioned read (%v) should be cheaper than %d ReadAt calls (%v)",
			rangeStats.SimTime, chunks, readAtStats.SimTime)
	}
}

// OpenRange under the fault injector's short-read mode must still deliver
// the exact extent; sectioned reads are never fault points.
func TestFaultOpenRangeShortReadsAndNoFaultPoints(t *testing.T) {
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i)
	}
	f := NewFault(NewMem())
	if err := f.Backend.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	f.SetShortReads(true)
	f.FailAt(1) // armed, but reads must never trip it
	r, err := f.OpenRange("f", 10, 500)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, _ := r.Read(buf)
	if n > 7 {
		t.Fatalf("short-read mode delivered %d bytes in one call", n)
	}
	rest, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := append(buf[:n], rest...)
	if !bytes.Equal(got, data[10:510]) {
		t.Fatal("short reads corrupted the extent")
	}
	if f.Crashed() || f.Ops() != 0 {
		t.Fatalf("sectioned read consumed fault points: ops=%d crashed=%v", f.Ops(), f.Crashed())
	}
}

func TestCopyFileStreamsVerbatim(t *testing.T) {
	data := make([]byte, 300_000) // several default-free chunks at 64 KiB
	for i := range data {
		data[i] = byte(i * 13)
	}
	src := NewMem()
	if err := src.WriteFile("a/in", data); err != nil {
		t.Fatal(err)
	}
	dst := NewMeter(NewMem(), LocalNVMe())
	n, err := CopyFile(dst, "b/out", src, "a/in", 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(data)) {
		t.Fatalf("copied %d bytes, want %d", n, len(data))
	}
	got, err := dst.ReadFile("b/out")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("copy not verbatim")
	}
	// The write side is charged as one streamed file.
	if s := dst.Stats(); s.FilesWritten != 1 || s.BytesWritten != int64(len(data)) {
		t.Fatalf("dst meter %+v, want 1 file / %d bytes", s, len(data))
	}
	if _, err := CopyFile(dst, "b/out2", src, "a/missing", 0); err == nil {
		t.Fatal("copying a missing file succeeded")
	}
}

// A range whose end overflows int64 must be rejected on every blob form —
// raw blobs range on the backend, containers on the decoded payload —
// rather than panic slicing the decoded payload.
func TestBlobOpenRangeRejectsOverflowingExtent(t *testing.T) {
	s := NewBlobStore(NewMem(), "objects")
	parentData := planePayload(8192, 1, 97)
	raw, _ := putOpts(t, s, planePayload(8192, 3, 97), BlobPutOptions{})
	plane, pres := putOpts(t, s, parentData, BlobPutOptions{Codec: CodecPlane, Width: 2})
	xor, xres := putOpts(t, s, planePayload(8192, 2, 97),
		BlobPutOptions{Codec: CodecXORParent, Width: 2, Parent: plane})
	if pres.Codec != CodecPlane || xres.Codec != CodecXORParent {
		t.Fatalf("setup: stored as %v and %v", pres.Codec, xres.Codec)
	}
	for name, d := range map[string]string{"raw": raw, "plane": plane, "xor": xor} {
		for _, ext := range [][2]int64{{1, math.MaxInt64}, {math.MaxInt64, 1}, {8192, 1}, {0, 8193}} {
			if r, err := s.OpenRange(d, ext[0], ext[1]); err == nil {
				r.Close()
				t.Fatalf("%s blob: extent %v accepted (payload is 8192 bytes)", name, ext)
			}
		}
		r, err := s.OpenRange(d, 8000, 192)
		if err != nil {
			t.Fatalf("%s blob: in-range tail rejected: %v", name, err)
		}
		got, _ := io.ReadAll(r)
		r.Close()
		if len(got) != 192 {
			t.Fatalf("%s blob: tail read %d bytes, want 192", name, len(got))
		}
	}
}
