// Content-addressed blob storage.
//
// A BlobStore keeps immutable payload blobs under a root directory, each
// named by the lowercase-hex SHA-256 of its contents with a two-character
// fan-out: `<root>/ab/abcdef...`. Writers stream into a uniquely named
// staging file under `<root>/.stage/` and publish with one atomic rename,
// so a crash mid-put leaves only staging residue — never a half-written
// blob under a valid digest. Puts are idempotent: a blob that already
// exists is never rewritten, which is the dedup win incremental
// checkpointing is built on.
//
// The store itself holds no reference counts on disk (stored counters
// cannot survive crashes coherently); instead Sweep takes a refcount map
// derived by the caller from its committed manifests and removes exactly
// the unreferenced blobs plus any staging residue. A blob with a non-zero
// refcount is never touched.
package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"sort"
	"strings"
	"sync/atomic"

	"llmtailor/internal/parallel"
	"llmtailor/internal/tensor"
)

// ErrStagingLost reports that a writer's staging file vanished before its
// publishing rename: a sweep running concurrently mistook the in-flight
// put for crash residue and removed it. The put is retryable — re-stream
// the payload into a fresh staging name (PutStream does this) — and the
// bounded retry is what makes sweeping staging residue safe to run beside
// live writers.
var ErrStagingLost = errors.New("storage: staging file lost to a concurrent sweep")

// blobStageDir is the staging subdirectory blobs are streamed into before
// their publishing rename.
const blobStageDir = ".stage"

// blobTrashDir holds blobs a sweep has provisionally removed: the
// two-phase sweep renames a victim here, re-checks for references that
// appeared after its pin snapshot (a concurrent save reusing the blob),
// and only then purges — or restores. See SweepDigests.
const blobTrashDir = ".trash"

// blobSeq makes concurrent staging names unique within the process (two
// async savers putting the same digest must not interleave writes into one
// staging file).
var blobSeq atomic.Int64

// BlobStore is a content-addressed store rooted at a directory of a
// Backend.
//
// On a backend without rename (RenameSupported false — object stores) the
// store switches publication modes: writers spool the payload locally and
// publish with one idempotent whole-object PUT (multipart for large blobs
// when the backend can Compose). The PUT itself is atomic on an object
// store, so the no-half-written-blob invariant holds in both modes.
type BlobStore struct {
	b      Backend
	root   string
	rename bool
	mp     MultipartOptions
	// peers, when set, is the sharded store this one is a shard of. An xor
	// parent's digest routes independently of its child's, so parents are
	// looked up and resolved through it. Nil means parents live locally.
	peers *ShardedStore
}

// NewBlobStore returns a store over root (e.g. "run/objects"). The root is
// created lazily by the first put.
func NewBlobStore(b Backend, root string) *BlobStore {
	return &BlobStore{b: b, root: strings.TrimSuffix(root, "/"), rename: RenameSupported(b)}
}

// SetMultipart tunes how no-rename publication streams large blobs (part
// size, upload parallelism, in-flight byte budget). Rename-mode stores
// ignore it.
func (s *BlobStore) SetMultipart(opts MultipartOptions) { s.mp = opts }

// Root returns the store's root directory.
func (s *BlobStore) Root() string { return s.root }

// ValidDigest reports whether d is a well-formed blob digest: 64 lowercase
// hex characters (SHA-256).
func ValidDigest(d string) bool {
	if len(d) != 64 {
		return false
	}
	for i := 0; i < len(d); i++ {
		c := d[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// DigestBytes returns the store digest of a byte slice.
func DigestBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Path returns the blob's path relative to the backend root.
func (s *BlobStore) Path(digest string) string {
	return s.root + "/" + digest[:2] + "/" + digest
}

// Has reports whether the blob exists.
func (s *BlobStore) Has(digest string) bool {
	return ValidDigest(digest) && s.b.Exists(s.Path(digest))
}

// Stat returns the blob's size.
func (s *BlobStore) Stat(digest string) (int64, error) {
	if !ValidDigest(digest) {
		return 0, fmt.Errorf("storage: invalid blob digest %q", digest)
	}
	return s.b.Stat(s.Path(digest))
}

// Open opens a sequential reader over the blob's payload bytes. A blob
// stored as an LTBC container is decoded transparently (xor-parent chains
// resolved against the store), so readers always see the bytes the digest
// names.
func (s *BlobStore) Open(digest string) (io.ReadCloser, error) {
	if !ValidDigest(digest) {
		return nil, fmt.Errorf("storage: invalid blob digest %q", digest)
	}
	rc, err := s.b.Open(s.Path(digest))
	if err != nil {
		return nil, err
	}
	var magic [4]byte
	n, err := io.ReadFull(rc, magic[:])
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		// Shorter than the magic: raw by definition, fully read already.
		rc.Close()
		return io.NopCloser(bytes.NewReader(magic[:n])), nil
	}
	if err != nil {
		rc.Close()
		return nil, err
	}
	if !IsContainer(magic[:]) {
		return &prefixedReader{r: io.MultiReader(bytes.NewReader(magic[:]), rc), c: rc}, nil
	}
	rest, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return nil, err
	}
	raw, err := s.decodeContainerBlob(digest, append(magic[:], rest...), map[string]bool{digest: true}, 0)
	if err != nil {
		return nil, err
	}
	return io.NopCloser(bytes.NewReader(raw)), nil
}

// prefixedReader re-attaches sniffed leading bytes to the backend stream.
type prefixedReader struct {
	r io.Reader
	c io.Closer
}

func (p *prefixedReader) Read(b []byte) (int, error) { return p.r.Read(b) }
func (p *prefixedReader) Close() error               { return p.c.Close() }

// OpenRange opens a sectioned reader over the blob's payload bytes. Raw
// blobs serve the range straight off the backend; containers are decoded in
// full first (range reads address the *payload*, which has no fixed layout
// inside a container).
func (s *BlobStore) OpenRange(digest string, off, n int64) (io.ReadCloser, error) {
	if !ValidDigest(digest) {
		return nil, fmt.Errorf("storage: invalid blob digest %q", digest)
	}
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("storage: invalid range [%d,+%d) for blob %s", off, n, digest)
	}
	path := s.Path(digest)
	hdr, err := s.sniff(path)
	if err != nil {
		return nil, err
	}
	if !IsContainer(hdr) {
		return s.b.OpenRange(path, off, n)
	}
	raw, err := s.readDecoded(digest)
	if err != nil {
		return nil, err
	}
	if err := checkRange(path, off, n, int64(len(raw))); err != nil {
		return nil, err
	}
	return io.NopCloser(bytes.NewReader(raw[off : off+n])), nil
}

// sniff reads up to the magic length from the head of an object.
func (s *BlobStore) sniff(path string) ([]byte, error) {
	rc, err := s.b.OpenRange(path, 0, int64(len(blobMagic)))
	if err != nil {
		// A file shorter than the magic cannot be a container; fall back to
		// a whole-object open so short raw blobs still sniff cleanly.
		rc, err = s.b.Open(path)
		if err != nil {
			return nil, err
		}
	}
	defer rc.Close()
	hdr := make([]byte, len(blobMagic))
	n, err := io.ReadFull(rc, hdr)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return hdr[:n], nil
	}
	if err != nil {
		return nil, err
	}
	return hdr, nil
}

// Meta describes how the blob is stored: its codec, uncompressed payload
// size, on-backend size, and (for xor-parent containers) the parent digest.
// For raw blobs RawSize == StoredSize.
func (s *BlobStore) Meta(digest string) (BlobMeta, error) {
	if !ValidDigest(digest) {
		return BlobMeta{}, fmt.Errorf("storage: invalid blob digest %q", digest)
	}
	path := s.Path(digest)
	size, err := s.b.Stat(path)
	if err != nil {
		return BlobMeta{}, err
	}
	if size < blobHeaderSize {
		return BlobMeta{Codec: CodecRaw, RawSize: size, StoredSize: size}, nil
	}
	rc, err := s.b.OpenRange(path, 0, blobHeaderSize)
	if err != nil {
		return BlobMeta{}, err
	}
	hdr := make([]byte, blobHeaderSize)
	_, rerr := io.ReadFull(rc, hdr)
	rc.Close()
	if rerr != nil {
		return BlobMeta{}, rerr
	}
	if !IsContainer(hdr) {
		return BlobMeta{Codec: CodecRaw, RawSize: size, StoredSize: size}, nil
	}
	meta, err := ParseContainerHeader(hdr, size)
	if err != nil {
		return BlobMeta{}, fmt.Errorf("storage: blob %s: %w", digest, err)
	}
	return meta, nil
}

// readDecoded returns the blob's full payload bytes with any container
// decoded and xor-parent chains resolved.
func (s *BlobStore) readDecoded(digest string) ([]byte, error) {
	return s.resolveLocal(digest, map[string]bool{}, 0)
}

// resolveAny resolves a digest through the owning shard when this store is
// one, else through this store. seen and depth thread the chain walk's
// cycle/depth guard across shard boundaries.
func (s *BlobStore) resolveAny(digest string, seen map[string]bool, depth int) ([]byte, error) {
	if s.peers != nil {
		return s.peers.shard(digest).resolveLocal(digest, seen, depth)
	}
	return s.resolveLocal(digest, seen, depth)
}

// hasAny is Has routed like resolveAny.
func (s *BlobStore) hasAny(digest string) bool {
	if s.peers != nil {
		return s.peers.Has(digest)
	}
	return s.Has(digest)
}

// resolveLocal reads one blob from this store and decodes it, recursing
// through resolveAny for xor parents. seen and depth bound the walk so a
// corrupt chain (cycle, self-parent, unbounded depth) errors instead of
// recursing forever.
func (s *BlobStore) resolveLocal(digest string, seen map[string]bool, depth int) ([]byte, error) {
	if depth > MaxParentDepth {
		return nil, fmt.Errorf("storage: blob %s: xor-parent chain deeper than %d", digest, MaxParentDepth)
	}
	if seen[digest] {
		return nil, fmt.Errorf("storage: blob %s: xor-parent chain cycles", digest)
	}
	seen[digest] = true
	rc, err := s.b.Open(s.Path(digest))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return nil, err
	}
	if !IsContainer(data) {
		return data, nil
	}
	return s.decodeContainerBlob(digest, data, seen, depth)
}

// decodeContainerBlob decodes container bytes read for digest, resolving the
// parent chain when the codec is xor-parent.
func (s *BlobStore) decodeContainerBlob(digest string, data []byte, seen map[string]bool, depth int) ([]byte, error) {
	payload, meta, err := DecodeContainer(data, DecodeOpts{})
	if err != nil {
		return nil, fmt.Errorf("storage: blob %s: %w", digest, err)
	}
	if meta.Codec != CodecXORParent {
		return payload, nil
	}
	parentRaw, err := s.resolveAny(meta.Parent, seen, depth+1)
	if err != nil {
		return nil, fmt.Errorf("storage: blob %s: resolve parent: %w", digest, err)
	}
	if len(parentRaw) != len(payload) {
		return nil, fmt.Errorf("storage: blob %s: parent %s payload is %d bytes, delta is %d",
			digest, meta.Parent, len(parentRaw), len(payload))
	}
	raw := make([]byte, len(payload))
	tensor.XORBytes(raw, payload, parentRaw)
	return raw, nil
}

// Put streams r into the store under the given digest, unless the blob
// already exists. It returns (written, bytes, err); written is false on a
// dedup hit, in which case not a single payload byte moves.
func (s *BlobStore) Put(digest string, r io.Reader) (bool, int64, error) {
	if !ValidDigest(digest) {
		return false, 0, fmt.Errorf("storage: invalid blob digest %q", digest)
	}
	if s.Has(digest) {
		return false, 0, nil
	}
	w, err := s.Writer()
	if err != nil {
		return false, 0, err
	}
	n, err := io.Copy(w, r)
	if err != nil {
		w.Abort()
		return false, n, fmt.Errorf("storage: put blob %s: %w", digest, err)
	}
	written, err := w.Commit(digest)
	return written, n, err
}

// PutBytes stores a byte slice (convenience over Put).
func (s *BlobStore) PutBytes(data []byte) (digest string, written bool, err error) {
	digest = DigestBytes(data)
	written, _, err = s.Put(digest, bytes.NewReader(data))
	return digest, written, err
}

// PutStream stores a payload under its digest by replaying encode() into
// staging space, unless the blob already exists. Unlike Put it owns the
// byte source, so a staging file stolen by a concurrent sweep
// (ErrStagingLost) is survived by re-streaming into a fresh staging name —
// bounded, then surfaced honestly.
func (s *BlobStore) PutStream(digest string, encode func(io.Writer) (int64, error)) (bool, error) {
	if !ValidDigest(digest) {
		return false, fmt.Errorf("storage: invalid blob digest %q", digest)
	}
	const maxAttempts = 8
	for attempt := 1; ; attempt++ {
		if s.Has(digest) {
			return false, nil
		}
		w, err := s.Writer()
		if err != nil {
			return false, err
		}
		if _, err := encode(w); err != nil {
			w.Abort()
			return false, err
		}
		written, err := w.Commit(digest)
		if err == nil {
			return written, nil
		}
		if attempt >= maxAttempts || !errors.Is(err, ErrStagingLost) {
			return false, err
		}
	}
}

// BlobPutOptions requests an encoded put: the codec to try, the payload's
// element width, the parent digest (CodecXORParent), an optional gate
// bounding the raw bytes the chunk coders hold in flight, and an optional
// cache of verified payloads. With a cache, the put admits its payload once
// the digest is verified, and an xor delta uses the cached parent payload
// instead of decoding the parent's chain from the store.
type BlobPutOptions struct {
	Codec  BlobCodec
	Width  int
	Parent string
	Gate   *parallel.ByteGate
	Cache  *ParentCache
}

// PutResult reports how a put ended up stored. On a dedup hit the fields
// describe the existing blob (whose codec may differ from the request).
type PutResult struct {
	Written     bool
	Codec       BlobCodec
	Parent      string
	RawBytes    int64
	StoredBytes int64
}

// resultFor describes the stored blob as a PutResult.
func (s *BlobStore) resultFor(digest string, written bool) (PutResult, error) {
	meta, err := s.Meta(digest)
	if err != nil {
		return PutResult{Written: written}, err
	}
	return PutResult{
		Written:     written,
		Codec:       meta.Codec,
		Parent:      meta.Parent,
		RawBytes:    meta.RawSize,
		StoredBytes: meta.StoredSize,
	}, nil
}

// PutStreamOpts is PutStream with codec negotiation: the payload is encoded
// per opts when that pays, with a size-gated fallback chain xor-parent →
// plane → raw. The digest is ALWAYS verified over the uncompressed payload
// bytes before anything is published, whatever form ends up stored. An
// unreachable or size-mismatched parent demotes to plane rather than
// failing — compression is an optimization, never a correctness dependency.
func (s *BlobStore) PutStreamOpts(digest string, opts BlobPutOptions, encode func(io.Writer) (int64, error)) (PutResult, error) {
	if !ValidDigest(digest) {
		return PutResult{}, fmt.Errorf("storage: invalid blob digest %q", digest)
	}
	if opts.Codec != CodecPlane && opts.Codec != CodecXORParent {
		written, err := s.PutStream(digest, encode)
		if err != nil {
			return PutResult{}, err
		}
		return s.resultFor(digest, written)
	}
	if s.Has(digest) {
		return s.resultFor(digest, false)
	}
	var buf bytes.Buffer
	sum := sha256.New()
	if _, err := encode(io.MultiWriter(&buf, sum)); err != nil {
		return PutResult{}, err
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != digest {
		return PutResult{}, fmt.Errorf("storage: blob content hashes to %s, want %s", got, digest)
	}
	raw := buf.Bytes()
	container, codec := s.encodeBlob(digest, raw, opts)
	var written bool
	var err error
	if codec == CodecRaw {
		written, err = s.PutStream(digest, func(w io.Writer) (int64, error) {
			n, werr := w.Write(raw)
			return int64(n), werr
		})
	} else {
		written, err = s.putContainer(digest, container)
	}
	if err != nil {
		return PutResult{}, err
	}
	// raw hashed to digest above and the blob now exists.
	opts.Cache.admit(digest, raw)
	return s.resultFor(digest, written)
}

// encodeBlob picks the effective codec for raw under opts, returning the
// container bytes, or (nil, CodecRaw) when nothing pays.
func (s *BlobStore) encodeBlob(digest string, raw []byte, opts BlobPutOptions) ([]byte, BlobCodec) {
	codec := opts.Codec
	if codec == CodecXORParent {
		if ValidDigest(opts.Parent) && opts.Parent != digest {
			parentRaw, err := s.parentPayload(digest, opts)
			if err == nil && len(parentRaw) == len(raw) {
				delta := make([]byte, len(raw))
				tensor.XORBytes(delta, raw, parentRaw)
				if c, ok := EncodeContainer(delta, CodecXORParent, opts.Width, opts.Parent, opts.Gate); ok {
					return c, CodecXORParent
				}
			}
		}
		codec = CodecPlane
	}
	if codec == CodecPlane {
		if c, ok := EncodeContainer(raw, CodecPlane, opts.Width, "", opts.Gate); ok {
			return c, CodecPlane
		}
	}
	return nil, CodecRaw
}

// parentPayload returns the raw payload of opts.Parent: the cached copy
// while the parent blob still exists (a swept parent must demote the put
// exactly as a failed read-back does), else the parent decoded from the
// store.
func (s *BlobStore) parentPayload(digest string, opts BlobPutOptions) ([]byte, error) {
	if raw, ok := opts.Cache.lookup(opts.Parent, s.hasAny); ok {
		return raw, nil
	}
	return s.resolveAny(opts.Parent, map[string]bool{digest: true}, 1)
}

// putContainer publishes container bytes under digest. The container's own
// bytes deliberately do not hash to the digest — the payload they decode to
// does, verified by the caller — so the writer's content-hash check is
// skipped, with the same publish-race and staging-loss handling as
// PutStream.
func (s *BlobStore) putContainer(digest string, container []byte) (bool, error) {
	const maxAttempts = 8
	for attempt := 1; ; attempt++ {
		if s.Has(digest) {
			return false, nil
		}
		w, err := s.Writer()
		if err != nil {
			return false, err
		}
		w.container = true
		w.started = true
		if _, err := w.Write(container); err != nil {
			w.Abort()
			return false, err
		}
		written, err := w.Commit(digest)
		if err == nil {
			return written, nil
		}
		if attempt >= maxAttempts || !errors.Is(err, ErrStagingLost) {
			return false, err
		}
	}
}

// Writer opens a streaming blob writer. The caller streams the payload,
// then calls Commit with the expected digest (verified against the bytes
// actually written) to publish, or Abort to drop the staging file.
func (s *BlobStore) Writer() (*BlobWriter, error) {
	// The PID keeps staging names unique across processes sharing a run
	// root (a dedup-saving trainer and a -dedup merge, say): OS Create
	// truncates rather than excluding, so a name collision would
	// interleave two writers' bytes in one staging file.
	stage := fmt.Sprintf("%s/%s/put-%d-%d", s.root, blobStageDir, os.Getpid(), blobSeq.Add(1))
	if !s.rename {
		// No rename to publish with: spool the payload locally, verify the
		// digest against the spooled bytes, then publish with one atomic
		// PUT at Commit. Nothing touches the backend until the content is
		// proven, so ErrStagingLost cannot occur in this mode.
		sp, err := NewSpool(s.b)
		if err != nil {
			return nil, fmt.Errorf("storage: spool blob: %w", err)
		}
		return &BlobWriter{s: s, stage: stage, spool: sp, sum: sha256.New()}, nil
	}
	w, err := s.b.Create(stage)
	if err != nil {
		return nil, fmt.Errorf("storage: stage blob: %w", err)
	}
	return &BlobWriter{s: s, stage: stage, w: w, sum: sha256.New()}, nil
}

// BlobWriter streams one blob into staging space; see BlobStore.Writer.
type BlobWriter struct {
	s     *BlobStore
	stage string
	w     io.WriteCloser // rename mode: staging stream
	spool Spool          // no-rename mode: local spool until Commit
	sum   hash.Hash
	n     int64 // payload bytes streamed by the caller
	done  bool
	// The first magic-length payload bytes are held back until the escape
	// decision: a raw payload that begins with the container magic is
	// prefixed with a stored-codec header so file bytes starting with "LTBC"
	// are always a container. container marks an internal put whose bytes
	// already ARE a container (no escape, no content-hash check — the digest
	// names the payload, not the container).
	head      []byte
	started   bool
	container bool
	stored    int64 // bytes written to the staging stream / spool
}

// Write implements io.Writer. The payload hash always covers the caller's
// bytes; the escape header, when emitted, is storage framing outside it.
func (w *BlobWriter) Write(p []byte) (int, error) {
	if !w.started {
		w.sum.Write(p)
		w.n += int64(len(p))
		w.head = append(w.head, p...)
		if len(w.head) < len(blobMagic) {
			return len(p), nil
		}
		if err := w.flushHead(); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	n, err := w.writeOut(p)
	if n > 0 {
		w.sum.Write(p[:n])
		w.n += int64(n)
	}
	return n, err
}

// flushHead makes the escape decision and starts the underlying stream.
func (w *BlobWriter) flushHead() error {
	w.started = true
	if IsContainer(w.head) {
		if _, err := w.writeOut(storedHeader()); err != nil {
			return err
		}
	}
	_, err := w.writeOut(w.head)
	w.head = nil
	return err
}

// writeOut sends bytes to the staging stream (rename mode) or spool.
func (w *BlobWriter) writeOut(p []byte) (int, error) {
	var n int
	var err error
	if w.spool != nil {
		n, err = w.spool.Write(p)
	} else {
		n, err = w.w.Write(p)
	}
	w.stored += int64(n)
	return n, err
}

// Commit closes the staging stream, verifies the streamed bytes hash to
// digest, and publishes the blob with one atomic rename. It returns false
// (without error) when another writer published the same digest first —
// content-addressing makes the copies identical, so losing the race is a
// dedup hit, not a failure.
func (w *BlobWriter) Commit(digest string) (bool, error) {
	if w.done {
		return false, fmt.Errorf("storage: blob commit after close")
	}
	w.done = true
	if !w.started {
		// Payload shorter than the magic: the escape decision is trivially
		// "raw"; flush what was held back.
		if err := w.flushHead(); err != nil {
			w.abortStage()
			return false, fmt.Errorf("storage: stage blob %s: %w", digest, err)
		}
	}
	if w.spool != nil {
		return w.commitPut(digest)
	}
	if err := w.w.Close(); err != nil {
		w.s.b.Remove(w.stage)
		return false, fmt.Errorf("storage: stage blob %s: %w", digest, err)
	}
	if !ValidDigest(digest) {
		w.s.b.Remove(w.stage)
		return false, fmt.Errorf("storage: invalid blob digest %q", digest)
	}
	if got := hex.EncodeToString(w.sum.Sum(nil)); !w.container && got != digest {
		w.s.b.Remove(w.stage)
		return false, fmt.Errorf("storage: blob content hashes to %s, want %s", got, digest)
	}
	if w.s.Has(digest) {
		w.s.b.Remove(w.stage)
		return false, nil
	}
	if err := w.s.b.Rename(w.stage, w.s.Path(digest)); err != nil {
		if w.s.Has(digest) {
			// Lost the publish race to another writer of the same digest
			// (possibly after a sweep stole our staging file): the content
			// is durably stored, so this is a dedup hit, not a failure.
			w.s.b.Remove(w.stage)
			return false, nil
		}
		if !w.s.b.Exists(w.stage) {
			return false, fmt.Errorf("storage: publish blob %s: %w", digest, ErrStagingLost)
		}
		w.s.b.Remove(w.stage)
		return false, fmt.Errorf("storage: publish blob %s: %w", digest, err)
	}
	return true, nil
}

// commitPut is Commit for no-rename backends: verify the spooled content,
// then publish with one whole-object PUT — multipart when the payload
// spans several parts and the backend can Compose, serial otherwise. Part
// objects are named into the staging directory so residue from a crash
// mid-multipart is swept exactly like rename-mode staging residue.
func (w *BlobWriter) commitPut(digest string) (bool, error) {
	defer w.spool.Discard()
	if !ValidDigest(digest) {
		return false, fmt.Errorf("storage: invalid blob digest %q", digest)
	}
	if got := hex.EncodeToString(w.sum.Sum(nil)); !w.container && got != digest {
		return false, fmt.Errorf("storage: blob content hashes to %s, want %s", got, digest)
	}
	if w.s.Has(digest) {
		return false, nil
	}
	r, err := w.spool.Reader()
	if err != nil {
		return false, fmt.Errorf("storage: publish blob %s: %w", digest, err)
	}
	defer r.Close()
	opts := w.s.mp
	if opts.PartPrefix == "" {
		opts.PartPrefix = w.stage + ".part-"
	}
	// w.stored, not w.n: an escape header makes the object longer than the
	// payload the caller streamed.
	if err := MultipartPut(w.s.b, w.s.Path(digest), r, w.stored, opts); err != nil {
		if w.s.Has(digest) {
			// Lost the publish race to another writer of the same digest;
			// content addressing makes the copies identical.
			return false, nil
		}
		return false, fmt.Errorf("storage: publish blob %s: %w", digest, err)
	}
	return true, nil
}

// Abort drops the staging state (best effort; safe after Commit).
func (w *BlobWriter) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.abortStage()
}

// abortStage drops staging state once done is set.
func (w *BlobWriter) abortStage() {
	if w.spool != nil {
		w.spool.Discard()
		return
	}
	w.w.Close()
	w.s.b.Remove(w.stage)
}

// BlobInfo describes one stored blob.
type BlobInfo struct {
	Digest string
	Size   int64
}

// List enumerates the store: published blobs (sorted by digest) and any
// staging residue paths left by crashed puts. Entries under the root that
// are neither are reported as stray so scans can surface them.
func (s *BlobStore) List() (blobs []BlobInfo, staging, stray []string, err error) {
	if !s.b.Exists(s.root) {
		return nil, nil, nil, nil
	}
	entries, err := s.b.List(s.root)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("storage: list blob store %s: %w", s.root, err)
	}
	for _, e := range entries {
		name := strings.TrimSuffix(e, "/")
		dir := s.root + "/" + name
		switch {
		case name == RefsDirName && strings.HasSuffix(e, "/"):
			// The journaled ref index lives under the store root but is
			// managed by RefIndex, not the blob sweeper.
			continue
		case name == blobTrashDir && strings.HasSuffix(e, "/"):
			// Trash is enumerated separately (ListTrash); a sweep in
			// progress or a crash mid-sweep leaves entries here.
			continue
		case name == blobStageDir && strings.HasSuffix(e, "/"):
			files, err := s.b.List(dir)
			if err != nil {
				continue // raced with a concurrent cleanup
			}
			for _, f := range files {
				staging = append(staging, dir+"/"+strings.TrimSuffix(f, "/"))
			}
		case len(name) == 2 && strings.HasSuffix(e, "/"):
			files, err := s.b.List(dir)
			if err != nil {
				continue
			}
			for _, f := range files {
				fname := strings.TrimSuffix(f, "/")
				p := dir + "/" + fname
				if !ValidDigest(fname) || !strings.HasPrefix(fname, name) {
					stray = append(stray, p)
					continue
				}
				size, err := s.b.Stat(p)
				if err != nil {
					size = -1
				}
				blobs = append(blobs, BlobInfo{Digest: fname, Size: size})
			}
		default:
			stray = append(stray, dir)
		}
	}
	sort.Slice(blobs, func(i, j int) bool { return blobs[i].Digest < blobs[j].Digest })
	sort.Strings(staging)
	sort.Strings(stray)
	return blobs, staging, stray, nil
}

// Remove deletes one blob. Callers must hold the refcount invariant: only
// Sweep (or a caller that proved zero references) may remove.
func (s *BlobStore) Remove(digest string) error {
	if !ValidDigest(digest) {
		return fmt.Errorf("storage: invalid blob digest %q", digest)
	}
	return s.b.Remove(s.Path(digest))
}

// SweepReport records what a sweep removed and kept.
type SweepReport struct {
	// Kept is the number of blobs with a non-zero refcount (including any
	// restored from trash by the recheck).
	Kept int
	// Examined is the number of candidates the sweep considered: every
	// blob in the store for a full Sweep, only the candidate digests for a
	// generational SweepDigests — the cost difference the ref index buys.
	// Pinned candidates count too, so the two modes report comparably.
	Examined int
	// RemovedBlobs lists swept (unreferenced) blob digests.
	RemovedBlobs []string
	// Restored lists digests the post-trash recheck rescued: a reference
	// appeared (a concurrent save reusing the blob) after the pin
	// snapshot, so the provisional removal was undone.
	Restored []string
	// RemovedStaging lists deleted staging-residue paths.
	RemovedStaging []string
	// BytesFreed totals the removed blobs' sizes.
	BytesFreed int64
}

// trashPath returns a digest's location inside the trash area.
func (s *BlobStore) trashPath(digest string) string {
	return s.root + "/" + blobTrashDir + "/" + digest
}

// moveObject relocates one object: a single atomic rename when the backend
// has one, copy-then-delete otherwise. In the copy mode the destination is
// fully published before the source disappears, so a crash between the two
// steps leaves the object visible at both paths — and both callers
// (trash/restore) converge from that state on the next pass: Restore drops
// the redundant trash copy, and a re-trash of an already-trashed digest
// just re-copies identical content.
func (s *BlobStore) moveObject(from, to string) error {
	if s.rename {
		return s.b.Rename(from, to)
	}
	if _, err := CopyFile(s.b, to, s.b, from, 0); err != nil {
		return err
	}
	return s.b.Remove(from)
}

// Trash provisionally removes a blob into the trash area. The blob stops
// being visible to Has/Open; a recheck either restores it or purges it.
func (s *BlobStore) Trash(digest string) error {
	if !ValidDigest(digest) {
		return fmt.Errorf("storage: invalid blob digest %q", digest)
	}
	return s.moveObject(s.Path(digest), s.trashPath(digest))
}

// Restore undoes a provisional removal. If the blob was re-published
// meanwhile (a racing writer saw it missing and re-streamed it), the
// trash copy is simply dropped — content addressing makes the copies
// identical.
func (s *BlobStore) Restore(digest string) error {
	if !ValidDigest(digest) {
		return fmt.Errorf("storage: invalid blob digest %q", digest)
	}
	if s.Has(digest) {
		return s.b.Remove(s.trashPath(digest))
	}
	return s.moveObject(s.trashPath(digest), s.Path(digest))
}

// PurgeTrash deletes a trashed blob permanently.
func (s *BlobStore) PurgeTrash(digest string) error {
	if !ValidDigest(digest) {
		return fmt.Errorf("storage: invalid blob digest %q", digest)
	}
	return s.b.Remove(s.trashPath(digest))
}

// ListTrash enumerates trashed blobs (a sweep in progress, or residue of
// one that crashed between trash and purge).
func (s *BlobStore) ListTrash() ([]BlobInfo, error) {
	dir := s.root + "/" + blobTrashDir
	if !s.b.Exists(dir) {
		return nil, nil
	}
	files, err := s.b.List(dir)
	if err != nil {
		return nil, nil // raced with a concurrent purge draining the dir
	}
	var out []BlobInfo
	for _, f := range files {
		name := strings.TrimSuffix(f, "/")
		if !ValidDigest(name) {
			continue
		}
		size, err := s.b.Stat(dir + "/" + name)
		if err != nil {
			size = -1
		}
		out = append(out, BlobInfo{Digest: name, Size: size})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Digest < out[j].Digest })
	return out, nil
}

// RecheckFunc re-derives the pin set after candidates were trashed. The
// two-phase sweep calls it between trash and purge; any trashed digest
// the fresh pins cover is restored instead of purged.
type RecheckFunc func(trashed []string) (map[string]int, error)

// finalizeTrashed applies a recheck to provisionally removed digests:
// re-pinned ones are restored, the rest purged. With a nil recheck the
// purge is unconditional (quiescent callers).
func (s *BlobStore) finalizeTrashed(trashed []string, sizes map[string]int64, recheck RecheckFunc, rep *SweepReport) error {
	pins := map[string]int{}
	if recheck != nil && len(trashed) > 0 {
		p, err := recheck(trashed)
		if err != nil {
			return err
		}
		pins = p
	}
	for _, d := range trashed {
		if pins[d] > 0 {
			if err := s.Restore(d); err != nil {
				return fmt.Errorf("storage: restore blob %s: %w", d, err)
			}
			rep.Restored = append(rep.Restored, d)
			rep.Kept++
			continue
		}
		if err := s.PurgeTrash(d); err != nil {
			return fmt.Errorf("storage: purge blob %s: %w", d, err)
		}
		rep.RemovedBlobs = append(rep.RemovedBlobs, d)
		if size := sizes[d]; size > 0 {
			rep.BytesFreed += size
		}
	}
	return nil
}

// Sweep removes every blob whose refcount in refs is zero or absent, plus
// all staging residue. The invariant callers rely on: a blob with
// refs[digest] > 0 is never removed, whatever else fails — removals happen
// one file at a time, so an interrupted sweep only leaves extra garbage
// for the next run. Equivalent to SweepRecheck with a nil recheck; callers
// that may run beside live savers must supply one (see SweepRecheck).
func (s *BlobStore) Sweep(refs map[string]int) (*SweepReport, error) {
	return s.SweepRecheck(refs, nil)
}

// SweepRecheck is Sweep with the two-phase removal that makes sweeping
// safe beside concurrent savers. A saver that *reuses* an existing blob
// never rewrites it, so a refcount snapshot taken before the saver's
// journal append could sweep a blob a just-committed checkpoint
// references. Instead, victims are renamed into trash, recheck re-derives
// the pins, and only then are they purged — or restored.
//
// Why this closes the race: a saver appends its journal record BEFORE its
// reuse check (`Has`). If the reuse check saw the blob, it ran before the
// trash rename, so the record append ran before it too — and therefore
// before the recheck read, which then restores the blob. If the reuse
// check ran after the trash rename, it saw the blob missing and the saver
// re-published it. Either way no referenced blob is lost.
func (s *BlobStore) SweepRecheck(refs map[string]int, recheck RecheckFunc) (*SweepReport, error) {
	blobs, staging, stray, err := s.List()
	if err != nil {
		return nil, err
	}
	rep := &SweepReport{}
	for _, p := range staging {
		if err := s.b.Remove(p); err != nil {
			return rep, fmt.Errorf("storage: sweep staging %s: %w", p, err)
		}
		rep.RemovedStaging = append(rep.RemovedStaging, p)
	}
	// Stray entries (not blobs, not staging) are left alone: the sweeper
	// only ever deletes what it fully understands.
	_ = stray
	var trashed []string
	sizes := map[string]int64{}
	for _, blob := range blobs {
		rep.Examined++
		if refs[blob.Digest] > 0 {
			rep.Kept++
			continue
		}
		if err := s.Trash(blob.Digest); err != nil {
			return rep, fmt.Errorf("storage: sweep blob %s: %w", blob.Digest, err)
		}
		trashed = append(trashed, blob.Digest)
		sizes[blob.Digest] = blob.Size
	}
	if err := s.finalizeTrashed(trashed, sizes, recheck, rep); err != nil {
		return rep, err
	}
	return rep, nil
}

// StagingResidue lists the store's staging-residue paths without walking
// the blob fan-out — the cheap cleanup enumeration the generational sweep
// uses (a full List touches every stored blob).
func (s *BlobStore) StagingResidue() ([]string, error) {
	dir := s.root + "/" + blobStageDir
	if !s.b.Exists(dir) {
		return nil, nil
	}
	files, err := s.b.List(dir)
	if err != nil {
		// Best effort: a concurrent publish can drain the directory between
		// the Exists check and the listing (implied directories vanish with
		// their last file). Residue missed here is caught next pass.
		return nil, nil
	}
	out := make([]string, 0, len(files))
	for _, f := range files {
		out = append(out, dir+"/"+strings.TrimSuffix(f, "/"))
	}
	sort.Strings(out)
	return out, nil
}

// SweepDigests is the generational sweep: it examines exactly the candidate
// digests — blobs whose youngest reference fell inside retired generations
// — and removes those that exist and are not pinned by refs. Unlike Sweep
// it never lists the store, so its cost is O(candidates), independent of
// how many live blobs the run has accumulated. When dryRun is set the
// candidates are examined (existence + size) but nothing is removed.
//
// The safety invariant matches Sweep's — a digest with refs[digest] > 0
// is never touched, removals are per-blob, an interrupted sweep only
// leaves reclaim work — and the same two-phase trash/recheck protocol as
// SweepRecheck protects blobs a concurrent saver reuses after the pin
// snapshot was taken.
func (s *BlobStore) SweepDigests(candidates []string, refs map[string]int, dryRun bool, recheck RecheckFunc) (*SweepReport, error) {
	rep := &SweepReport{}
	var trashed []string
	sizes := map[string]int64{}
	for _, d := range candidates {
		if !ValidDigest(d) {
			return rep, fmt.Errorf("storage: sweep candidate: invalid digest %q", d)
		}
		rep.Examined++
		if refs[d] > 0 {
			rep.Kept++
			continue
		}
		size, err := s.Stat(d)
		if err != nil {
			continue // already gone (a previous sweep, or never stored)
		}
		if dryRun {
			rep.RemovedBlobs = append(rep.RemovedBlobs, d)
			if size > 0 {
				rep.BytesFreed += size
			}
			continue
		}
		if err := s.Trash(d); err != nil {
			return rep, fmt.Errorf("storage: sweep blob %s: %w", d, err)
		}
		trashed = append(trashed, d)
		sizes[d] = size
	}
	if err := s.finalizeTrashed(trashed, sizes, recheck, rep); err != nil {
		return rep, err
	}
	return rep, nil
}
