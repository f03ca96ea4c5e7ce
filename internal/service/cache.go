package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"time"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
	"abft/internal/precond"
)

// operatorKey identifies a protected operator by content and protection
// configuration: two requests share a cached operator exactly when the
// decoded matrix and every knob that shapes its protected image agree.
func operatorKey(m *csr.Matrix, p solveParams) string {
	h := sha256.New()
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(m.Rows()))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(m.Cols32()))
	h.Write(hdr[:])
	var w [8]byte
	for _, r := range m.RowPtr {
		binary.LittleEndian.PutUint32(w[:4], r)
		h.Write(w[:4])
	}
	for _, c := range m.Cols {
		binary.LittleEndian.PutUint32(w[:4], c)
		h.Write(w[:4])
	}
	for _, v := range m.Vals {
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
		h.Write(w[:])
	}
	key := fmt.Sprintf("%x|%v|%v|%v|%d", h.Sum(nil), p.format, p.scheme, p.rowptr, p.sigma)
	if p.shards > 1 {
		// A sharded operator is a different resident structure: the band
		// count and the halo-buffer protection both shape its image.
		key += fmt.Sprintf("|shards=%d|%v", p.shards, p.vectors)
	}
	if p.precond != precond.None {
		// The cached preconditioner's setup product is resident state of
		// its own; requests with different preconditioners must not share
		// an entry.
		key += fmt.Sprintf("|pre=%v", p.precond)
	}
	return key
}

// cacheEntry is one resident protected operator. The mutex arbitrates
// repairs, not reads: solve jobs hold it shared for the duration of
// their solve (the operator is built in shared mode, so Apply never
// writes matrix storage), while the scrub daemon takes it exclusively
// so its in-place corrections never race with a solve streaming the
// same codewords.
type cacheEntry struct {
	key string
	// ready is closed once build completes (m, diag and buildErr are
	// set); concurrent requests for a building operator wait on it
	// instead of encoding a duplicate.
	ready    chan struct{}
	m        op.Matrix
	buildErr error
	// diag is the fully verified main diagonal, extracted at build time
	// while the operator is still private: Jacobi preconditioning and
	// the jacobi solver read it from here, because the formats' own
	// Diagonal routes through CheckAll and would commit repairs to
	// shared storage under only a read lock.
	diag []float64
	// pre is the cached protected preconditioner built with the
	// operator (nil for unpreconditioned entries). Its state shares the
	// operator's counters and lock discipline: solves apply it under
	// the shared lock in no-commit mode, the scrub daemon repairs it
	// under the exclusive lock.
	pre precond.Preconditioner
	// shards is the operator's band count (1 for unsharded operators),
	// recorded for the /metrics shard gauge and per-shard scrub stats.
	shards int

	mu sync.RWMutex

	elem  *list.Element
	built bool // set under operatorCache.mu; only built entries are evictable
}

// CacheStats is a point-in-time summary of cache activity.
type CacheStats struct {
	// Entries is the current resident operator count.
	Entries int
	// Builds counts operators encoded (cache misses that succeeded).
	Builds uint64
	// Hits counts requests served by a resident (or in-flight) operator.
	Hits uint64
	// BuildErrors counts failed encode attempts.
	BuildErrors uint64
	// EvictedLRU counts capacity evictions.
	EvictedLRU uint64
	// EvictedFault counts operators dropped because scrubbing found a
	// detected-but-uncorrectable fault.
	EvictedFault uint64
	// Shards is the current resident shard count summed over every
	// operator (an unsharded operator counts one).
	Shards int
	// Preconditioners is the current count of resident cached
	// preconditioners (entries whose setup product is also cached and
	// scrubbed).
	Preconditioners int
}

// operatorCache is the content-addressed LRU of protected operators.
// Builds are single-flight: N concurrent requests for one new key pay
// one encode.
type operatorCache struct {
	log     *slog.Logger
	mu      sync.Mutex
	max     int
	lru     *list.List // front = most recently used; values are *cacheEntry
	entries map[string]*cacheEntry
	stats   CacheStats
	// retired accumulates the ABFT counters of evicted operators so the
	// service totals survive eviction.
	retired core.CounterSnapshot
}

func newOperatorCache(max int, log *slog.Logger) *operatorCache {
	if max < 1 {
		max = 1
	}
	return &operatorCache{
		log:     log,
		max:     max,
		lru:     list.New(),
		entries: make(map[string]*cacheEntry),
	}
}

// get returns the entry for key, building it with build on a miss (the
// builder returns the operator, its verified diagonal and the cached
// preconditioner, which may be nil). The second return reports whether
// the encode cost was amortised (a hit on a resident or
// concurrently-building operator).
func (c *operatorCache) get(key string, build func() (op.Matrix, []float64, precond.Preconditioner, error)) (*cacheEntry, bool, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		c.stats.Hits++
		c.mu.Unlock()
		<-e.ready
		if e.buildErr != nil {
			return nil, false, e.buildErr
		}
		return e, true, nil
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.mu.Unlock()

	buildStart := time.Now()
	m, diag, pre, err := build()

	c.mu.Lock()
	if err != nil {
		c.stats.BuildErrors++
		c.removeLocked(e)
		c.log.Warn("operator build failed", "operator", opShort(key), "err", err)
	} else {
		e.m = m
		e.diag = diag
		e.pre = pre
		e.shards = 1
		if sh, ok := m.(interface{ Shards() int }); ok {
			e.shards = sh.Shards()
		}
		e.built = true
		c.stats.Builds++
		c.evictOverCapacityLocked()
		c.log.Debug("operator built", "operator", opShort(key),
			"rows", m.Rows(), "shards", e.shards, "build_time", time.Since(buildStart))
	}
	c.mu.Unlock()
	e.buildErr = err
	close(e.ready)
	if err != nil {
		return nil, false, err
	}
	return e, false, nil
}

// lookup returns the resident, fully built entry for key, or nil.
func (c *operatorCache) lookup(key string) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && e.built {
		return e
	}
	return nil
}

// resident snapshots the built entries, oldest first — the scrub
// daemon's patrol order, so the operators longest without a check are
// scrubbed first.
func (c *operatorCache) resident() []*cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*cacheEntry, 0, len(c.entries))
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		if e := el.Value.(*cacheEntry); e.built {
			out = append(out, e)
		}
	}
	return out
}

// evictFault drops an operator whose scrub found an uncorrectable
// fault. The next request for its content rebuilds it from the source,
// which is the recovery the paper leaves to the application.
func (c *operatorCache) evictFault(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[e.key] == e {
		c.removeLocked(e)
		c.stats.EvictedFault++
		c.log.Warn("operator evicted on fault", "operator", opShort(e.key))
	}
}

// evictOverCapacityLocked drops least-recently-used built entries until
// the cache fits. Entries still building are never evicted (their
// waiters hold no reference yet).
func (c *operatorCache) evictOverCapacityLocked() {
	for len(c.entries) > c.max {
		victim := (*cacheEntry)(nil)
		for el := c.lru.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*cacheEntry); e.built {
				victim = e
				break
			}
		}
		if victim == nil {
			return
		}
		c.removeLocked(victim)
		c.stats.EvictedLRU++
		c.log.Debug("operator evicted, cache full", "operator", opShort(victim.key))
	}
}

func (c *operatorCache) removeLocked(e *cacheEntry) {
	if e.built {
		c.retired = c.retired.Add(e.m.CounterSnapshot())
	}
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
}

// OperatorCounters aggregates the ABFT counters of every operator the
// cache has held, resident and evicted.
func (c *operatorCache) OperatorCounters() core.CounterSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.retired
	for _, e := range c.entries {
		if e.built {
			total = total.Add(e.m.CounterSnapshot())
		}
	}
	return total
}

// Stats returns a snapshot of cache activity.
func (c *operatorCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	for _, e := range c.entries {
		if e.built {
			s.Shards += e.shards
			if e.pre != nil {
				s.Preconditioners++
			}
		}
	}
	return s
}
