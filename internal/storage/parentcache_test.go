package storage

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// planePayload is a bf16-like payload the plane codec compresses: high
// bytes constant, low bytes slowly varying, and every stride-th low byte
// xored with seed — so payloads of different seeds xor-delta sparsely.
func planePayload(n, seed, stride int) []byte {
	p := make([]byte, n)
	for i := 0; i+1 < n; i += 2 {
		p[i] = byte(i / 7)
		p[i+1] = 0x3f
		if stride > 0 && (i/2)%stride == 0 {
			p[i] ^= byte(seed)
		}
	}
	return p
}

func putOpts(t *testing.T, s CAS, data []byte, opts BlobPutOptions) (string, PutResult) {
	t.Helper()
	d := DigestBytes(data)
	res, err := s.PutStreamOpts(d, opts, func(w io.Writer) (int64, error) {
		n, err := w.Write(data)
		return int64(n), err
	})
	if err != nil {
		t.Fatalf("put %s: %v", d[:8], err)
	}
	return d, res
}

// stored returns a blob's on-backend bytes (the container, not the payload).
func stored(t *testing.T, b Backend, s CAS, digest string) []byte {
	t.Helper()
	data, err := b.ReadFile(s.Path(digest))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// A chain of xor puts encoded against cached parents must store exactly
// the containers a read-back of the parent chain produces, and every
// delta after the first generation must be served from the cache.
func TestParentCacheDeltasAreByteIdentical(t *testing.T) {
	const gens = 4
	cold, warm := NewMem(), NewMem()
	coldStore, warmStore := NewBlobStore(cold, "objects"), NewBlobStore(warm, "objects")
	cache := NewParentCache(1 << 20)
	parent := ""
	for g := 0; g < gens; g++ {
		data := planePayload(8192, g+1, 97)
		opts := BlobPutOptions{Codec: CodecPlane, Width: 2}
		if parent != "" {
			opts.Codec, opts.Parent = CodecXORParent, parent
		}
		d, coldRes := putOpts(t, coldStore, data, opts)
		opts.Cache = cache
		_, warmRes := putOpts(t, warmStore, data, opts)
		if coldRes != warmRes {
			t.Fatalf("gen %d: cold put %+v, warm put %+v", g, coldRes, warmRes)
		}
		if g > 0 && warmRes.Codec != CodecXORParent {
			t.Fatalf("gen %d: stored as %v, want xor-parent", g, warmRes.Codec)
		}
		if !bytes.Equal(stored(t, cold, coldStore, d), stored(t, warm, warmStore, d)) {
			t.Fatalf("gen %d: cached-parent container differs from the read-back one", g)
		}
		parent = d
	}
	st := cache.Stats()
	if st.Hits != gens-1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want %d hits and no misses", st, gens-1)
	}
	if st.HeldBytes != gens*8192 {
		t.Fatalf("held %d bytes, want %d", st.HeldBytes, gens*8192)
	}
	cache.Reset()
	if st := cache.Stats(); st.HeldBytes != 0 || st.Hits != gens-1 {
		t.Fatalf("after Reset: %+v", st)
	}
}

// A cached parent whose blob is gone must not be used: the put demotes to
// plane exactly as a failed read-back does, and the lookup is a miss.
func TestParentCacheSweptParentDemotesToPlane(t *testing.T) {
	b := NewMem()
	s := NewBlobStore(b, "objects")
	cache := NewParentCache(1 << 20)
	parent, _ := putOpts(t, s, planePayload(8192, 1, 97), BlobPutOptions{Codec: CodecPlane, Width: 2, Cache: cache})
	if err := s.Remove(parent); err != nil {
		t.Fatal(err)
	}
	child := planePayload(8192, 2, 97)
	d, res := putOpts(t, s, child, BlobPutOptions{Codec: CodecXORParent, Width: 2, Parent: parent, Cache: cache})
	if res.Codec != CodecPlane {
		t.Fatalf("put over a swept parent stored as %v, want plane", res.Codec)
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want one miss", st)
	}
	rc, err := s.Open(d)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(rc)
	rc.Close()
	if !bytes.Equal(got, child) {
		t.Fatal("demoted blob does not read back its payload")
	}
}

// Only payloads PutStreamOpts verified enter the cache: a digest mismatch,
// a dedup hit (no bytes in hand) and a raw put (no codec) admit nothing.
func TestParentCacheAdmitsOnlyVerifiedPayloads(t *testing.T) {
	s := NewBlobStore(NewMem(), "objects")
	cache := NewParentCache(1 << 20)
	data := planePayload(4096, 1, 31)
	opts := BlobPutOptions{Codec: CodecPlane, Width: 2, Cache: cache}

	wrong := strings.Repeat("ab", 32)
	if _, err := s.PutStreamOpts(wrong, opts, func(w io.Writer) (int64, error) {
		n, err := w.Write(data)
		return int64(n), err
	}); err == nil {
		t.Fatal("mismatched digest accepted")
	}
	if held := cache.Stats().HeldBytes; held != 0 {
		t.Fatalf("unverified payload admitted: %d bytes held", held)
	}

	raw := planePayload(4096, 2, 31)
	putOpts(t, s, raw, BlobPutOptions{Codec: CodecRaw, Cache: cache})
	if held := cache.Stats().HeldBytes; held != 0 {
		t.Fatalf("raw put admitted %d bytes", held)
	}

	putOpts(t, s, data, BlobPutOptions{Codec: CodecPlane, Width: 2})
	putOpts(t, s, data, opts) // dedup hit: the encoder never runs
	if held := cache.Stats().HeldBytes; held != 0 {
		t.Fatalf("dedup hit admitted %d bytes", held)
	}

	putOpts(t, s, planePayload(4096, 3, 31), opts)
	if held := cache.Stats().HeldBytes; held != 4096 {
		t.Fatalf("verified put held %d bytes, want 4096", held)
	}
}

// The byte bound holds: older payloads are evicted first, a payload larger
// than the bound is never cached, and an evicted parent is a miss.
func TestParentCacheBoundEvictsOldestFirst(t *testing.T) {
	s := NewBlobStore(NewMem(), "objects")
	const size = 4096
	cache := NewParentCache(2*size + size/2)
	var digests []string
	for g := 0; g < 4; g++ {
		d, _ := putOpts(t, s, planePayload(size, g+1, 31), BlobPutOptions{Codec: CodecPlane, Width: 2, Cache: cache})
		digests = append(digests, d)
		if held := cache.Stats().HeldBytes; held > 2*size+size/2 {
			t.Fatalf("gen %d: %d bytes held over the bound", g, held)
		}
	}
	putOpts(t, s, planePayload(3*size, 9, 31), BlobPutOptions{Codec: CodecPlane, Width: 2, Cache: cache})
	if held := cache.Stats().HeldBytes; held != 2*size {
		t.Fatalf("held %d bytes, want the two newest payloads (%d)", held, 2*size)
	}
	xor := func(parent string, seed int) {
		putOpts(t, s, planePayload(size, seed, 31), BlobPutOptions{Codec: CodecXORParent, Width: 2, Parent: parent, Cache: cache})
	}
	xor(digests[0], 20) // evicted
	xor(digests[3], 21) // newest
	if st := cache.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want one miss (evicted) and one hit (newest)", st)
	}
}

// On a sharded store the parent may live in another shard than its child:
// the existence check and the fallback read route to the parent's shard.
func TestParentCacheCrossShardParent(t *testing.T) {
	b := NewMem()
	s := NewShardedStore(b, "objects", 4)
	cache := NewParentCache(1 << 20)
	// Find a parent/child pair owned by different shards.
	var parentData, childData []byte
	for seed := 1; seed < 64 && childData == nil; seed++ {
		p, c := planePayload(8192, seed, 97), planePayload(8192, seed+100, 97)
		if s.shard(DigestBytes(p)) != s.shard(DigestBytes(c)) {
			parentData, childData = p, c
		}
	}
	if childData == nil {
		t.Fatal("no cross-shard pair found")
	}
	parent, _ := putOpts(t, s, parentData, BlobPutOptions{Codec: CodecPlane, Width: 2, Cache: cache})
	_, res := putOpts(t, s, childData, BlobPutOptions{Codec: CodecXORParent, Width: 2, Parent: parent, Cache: cache})
	if res.Codec != CodecXORParent {
		t.Fatalf("cross-shard child stored as %v, want xor-parent", res.Codec)
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want the cross-shard parent served from cache", st)
	}
	if err := s.Remove(parent); err != nil {
		t.Fatal(err)
	}
	_, res = putOpts(t, s, planePayload(8192, 200, 97), BlobPutOptions{Codec: CodecXORParent, Width: 2, Parent: parent, Cache: cache})
	if res.Codec != CodecPlane {
		t.Fatalf("put over a removed cross-shard parent stored as %v, want plane", res.Codec)
	}
}

func TestParentCacheNilIsEmpty(t *testing.T) {
	var c *ParentCache
	c.admit(strings.Repeat("ab", 32), []byte("x"))
	if _, ok := c.lookup(strings.Repeat("ab", 32), func(string) bool { return true }); ok {
		t.Fatal("nil cache served a payload")
	}
	c.Reset()
	if st := c.Stats(); st != (ParentCacheStats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
}
