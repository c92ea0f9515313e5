// Verified-payload cache for xor-parent puts.
//
// An xor-parent put deltas a payload against its parent's raw bytes. Read
// back from the store, those bytes cost a whole chain decode: the parent
// container, its parent, and so on up to the re-base bound. A saver that
// published the parent one save earlier still had those exact bytes in
// hand, so ParentCache keeps them: PutStreamOpts admits a payload only
// after the SHA-256 of exactly the admitted bytes matched its digest, and
// a later put whose parent is cached deltas against the cached copy
// instead, while the parent blob still exists. The encoded container is
// the one a read-back would produce, byte for byte.

package storage

import "sync"

// ParentCache holds payloads PutStreamOpts verified against their digests,
// bounded in bytes and evicted first in, first out. It is filled only by
// PutStreamOpts (see BlobPutOptions.Cache) and read only when encoding an
// xor delta; reads of stored blobs never consult it. A nil *ParentCache is
// a valid, permanently empty cache. Safe for concurrent use.
type ParentCache struct {
	mu     sync.Mutex
	limit  int64
	held   int64
	order  []string
	data   map[string][]byte
	hits   int64
	misses int64
}

// ParentCacheStats reports a cache's lookups and footprint.
type ParentCacheStats struct {
	// Hits counts xor deltas encoded against a cached parent; Misses those
	// that had to read the parent back from the store.
	Hits   int64
	Misses int64
	// HeldBytes is the payload bytes currently cached.
	HeldBytes int64
}

// NewParentCache returns a cache holding at most limit payload bytes.
func NewParentCache(limit int64) *ParentCache {
	return &ParentCache{limit: limit, data: map[string][]byte{}}
}

// Stats returns a snapshot of the cache's counters.
func (c *ParentCache) Stats() ParentCacheStats {
	if c == nil {
		return ParentCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return ParentCacheStats{Hits: c.hits, Misses: c.misses, HeldBytes: c.held}
}

// Reset drops every cached payload. The hit and miss counters survive.
func (c *ParentCache) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.order, c.data, c.held = nil, map[string][]byte{}, 0
	c.mu.Unlock()
}

// admit caches a copy of payload under digest. The caller must have just
// verified that payload hashes to digest. Payloads larger than the whole
// bound are not cached; older entries are evicted to make room.
func (c *ParentCache) admit(digest string, payload []byte) {
	if c == nil || int64(len(payload)) > c.limit {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.data[digest]; ok {
		return
	}
	for c.held+int64(len(payload)) > c.limit {
		old := c.order[0]
		c.order = c.order[1:]
		c.held -= int64(len(c.data[old]))
		delete(c.data, old)
	}
	c.data[digest] = append([]byte(nil), payload...)
	c.order = append(c.order, digest)
	c.held += int64(len(payload))
}

// lookup returns the cached payload of digest when it is cached and
// present reports that its blob still exists, counting a hit; otherwise it
// counts a miss. present is only called for cached digests.
func (c *ParentCache) lookup(digest string, present func(string) bool) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	payload, ok := c.data[digest]
	c.mu.Unlock()
	// The existence check runs outside the lock: it is a backend request.
	ok = ok && present(digest)
	c.mu.Lock()
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	return payload, ok
}
