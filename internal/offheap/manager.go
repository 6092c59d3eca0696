package offheap

import (
	"fmt"
	"sync"

	"repro/internal/obs"
)

// Size classes for record allocation (§3.6): each class serves a range of
// record sizes from its own pages, "similarly to what a high-performance
// allocator would do". Records larger than half a page get an empty page
// to themselves; records larger than a page go to the oversize class.
var sizeClasses = [...]int{64, 256, 1024, 4096, PageSize / 2}

const numClasses = len(sizeClasses)

func classFor(size int) int {
	for i, c := range sizeClasses {
		if size <= c {
			return i
		}
	}
	return -1 // dedicated or oversize page
}

// pageCacheCap bounds the per-scope page cache. Iterative workloads churn
// a handful of pages per iteration per thread; 32 pages (1 MB) covers that
// while keeping the worst-case memory parked in caches negligible.
const pageCacheCap = 32

// pageCache is a small per-IterScope stash of recycled PageSize pages.
// When an iteration ends, its manager parks recyclable pages here instead
// of pushing them through the runtime's global pool; the next iteration in
// the same scope pops them back without touching rt.mu. The mutex exists
// only because ReleaseAll can run on a different thread than the scope's
// owner (a parent iteration releasing a spawned thread's managers); it is
// scope-local, so it is uncontended in steady state.
type pageCache struct {
	mu      sync.Mutex
	entries []cachedPage
}

// cachedPage remembers which iteration released the page. IterIDs are
// globally unique and a manager never allocates after release, so a cached
// page can only be served to a *different* (later) iteration — the
// invariant the property test in offheap_test.go checks.
type cachedPage struct {
	p       *page
	srcIter int
}

// pop removes and returns the most recently cached page.
func (c *pageCache) pop() (cachedPage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.entries)
	if n == 0 {
		return cachedPage{}, false
	}
	e := c.entries[n-1]
	c.entries[n-1] = cachedPage{}
	c.entries = c.entries[:n-1]
	return e, true
}

// put parks a page in the cache; reports false when the cache is full.
func (c *pageCache) put(p *page, srcIter int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) >= pageCacheCap {
		return false
	}
	c.entries = append(c.entries, cachedPage{p: p, srcIter: srcIter})
	return true
}

// PageManager allocates records for one ⟨iterationID, thread⟩ pair and
// owns the pages it allocates from. Managers form the runtime tree of
// §3.6: a sub-iteration's manager is a child of the enclosing iteration's
// manager, and a new thread's default manager is a child of the manager
// current in the creating thread. Releasing a manager releases the whole
// subtree's pages at once.
//
// Alloc is single-threaded by construction (a manager belongs to one
// thread); the children list is the only shared state.
type PageManager struct {
	rt     *Runtime
	parent *PageManager

	childMu  sync.Mutex
	children []*PageManager

	cur      [numClasses]*page
	pages    []*page
	hwPages  int // most pages this manager has owned at once
	released bool

	// cache is the owning scope's page cache; nil for managers created
	// outside a scope (e.g. the VM root manager), which always use the
	// global pool.
	cache *pageCache
	// stop is the allocating thread's StopWorld, under which eviction
	// runs (inherited from the scope; see Bind for shared managers).
	stop StopWorld

	// IterID identifies the iteration this manager serves; -1 is the
	// thread-default manager ⟨⊥, t⟩. ThreadID identifies the owning thread.
	IterID   int
	ThreadID int
}

// NewManager creates a page manager. parent may be nil for a root manager.
func (rt *Runtime) NewManager(parent *PageManager, iterID, threadID int) *PageManager {
	m := &PageManager{rt: rt, parent: parent, IterID: iterID, ThreadID: threadID}
	rt.stats.managers.Add(1)
	if parent != nil {
		parent.childMu.Lock()
		parent.children = append(parent.children, m)
		parent.childMu.Unlock()
	}
	return m
}

// Bind sets the StopWorld the manager's allocations evict under. Managers
// in an IterScope inherit their thread's; a manager shared between
// threads under a lock (the VM root manager) is bound by whichever thread
// holds the lock.
func (m *PageManager) Bind(stop StopWorld) { m.stop = stop }

// alloc returns a page reference to size zeroed bytes. Allocation from a
// released manager and page-acquire failures surface as typed errors
// (ErrReleasedManager, ErrPageExhausted) rather than panics, so they can
// propagate through the VM boundary and be recovered from.
func (m *PageManager) alloc(size int) (PageRef, error) {
	if m.released {
		return 0, fmt.Errorf("%w (iteration %d, thread %d)", ErrReleasedManager, m.IterID, m.ThreadID)
	}
	size = (size + 7) &^ 7
	ci := classFor(size)
	if ci < 0 || size > PageSize/2 {
		// Large record: an empty page of its own ("large arrays are
		// allocated on empty pages"), oversize if it exceeds PageSize.
		want := size
		if want < PageSize {
			want = PageSize
		}
		var p *page
		var err error
		if want == PageSize {
			p, err = m.acquirePage()
		} else {
			p, err = m.rt.getPage(want, m.stop)
		}
		if err != nil {
			return 0, err
		}
		m.pages = append(m.pages, p)
		m.notePages()
		p.pos = size
		zero(p.buf[:size])
		return MakeRef(p.idx, 0), nil
	}
	p := m.cur[ci]
	if p == nil || p.pos+size > len(p.buf) {
		np, err := m.acquirePage()
		if err != nil {
			return 0, err
		}
		// The evictor must never take the page a manager bump-allocates
		// into: its bytes are written here without a resolve.
		if p != nil {
			p.bump = false
		}
		np.bump = true
		p = np
		m.pages = append(m.pages, p)
		m.notePages()
		m.cur[ci] = p
	}
	off := p.pos
	p.pos += size
	zero(p.buf[off : off+size])
	return MakeRef(p.idx, off), nil
}

// acquirePage returns a PageSize page, preferring the scope cache (a pop
// plus lock-free stat updates) over the runtime's locked getPage path. A
// fault injected at the cache-hit acquire point puts the page back, so the
// cache's contents are unchanged by a failed acquire.
func (m *PageManager) acquirePage() (*page, error) {
	if m.cache != nil && !m.rt.DisablePageCache {
		if e, ok := m.cache.pop(); ok {
			if err := m.rt.noteCachedRecycle(e.p, m.stop); err != nil {
				m.cache.put(e.p, e.srcIter)
				return nil, err
			}
			return e.p, nil
		}
	}
	return m.rt.getPage(PageSize, m.stop)
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// notePages updates the manager's page high-water mark; callers are the
// owning thread (Alloc is single-threaded by construction).
func (m *PageManager) notePages() {
	if len(m.pages) > m.hwPages {
		m.hwPages = len(m.pages)
	}
}

// PageHighWater returns the most pages this manager has owned at once
// (excluding children).
func (m *PageManager) PageHighWater() int { return m.hwPages }

// ReleaseAll releases every page owned by this manager and, recursively,
// by its children — the bulk reclamation that ends a (sub-)iteration.
// The release is announced on the runtime's event stream with the
// manager's identity and page high-water mark.
func (m *PageManager) ReleaseAll() {
	if m.released {
		return
	}
	m.released = true
	m.rt.obs.Emit(obs.EvManagerRelease, "", int64(m.IterID), int64(m.ThreadID), int64(m.hwPages))
	m.childMu.Lock()
	children := m.children
	m.children = nil
	m.childMu.Unlock()
	for _, c := range children {
		c.ReleaseAll()
	}
	for i, p := range m.cur {
		if p != nil {
			p.bump = false
			m.cur[i] = nil
		}
	}
	for _, p := range m.pages {
		if m.cache != nil && !m.rt.DisablePageCache && !m.rt.DisableRecycle &&
			m.rt.cacheRelease(m.cache, p, m.IterID) {
			continue
		}
		m.rt.releasePage(p)
	}
	m.pages = nil
	if m.parent != nil {
		m.parent.childMu.Lock()
		for i, c := range m.parent.children {
			if c == m {
				m.parent.children = append(m.parent.children[:i], m.parent.children[i+1:]...)
				break
			}
		}
		m.parent.childMu.Unlock()
	}
}

// Released reports whether the manager's pages have been reclaimed.
func (m *PageManager) Released() bool { return m.released }

// PageCount returns the number of pages currently owned (excluding
// children).
func (m *PageManager) PageCount() int { return len(m.pages) }

// AllocRecord allocates a zeroed scalar record with the given type ID and
// body size and returns its page reference.
func (m *PageManager) AllocRecord(typeID uint16, bodySize int) (PageRef, error) {
	ref, err := m.alloc(ScalarHeader + bodySize)
	if err != nil {
		return 0, err
	}
	putU16(m.rt.bytes(ref), typeID)
	m.rt.stats.records.Add(1)
	m.maybeEvict()
	return ref, nil
}

// AllocArray allocates a zeroed array record for n elements of elemSize
// bytes, tagged with the array type index (-1, from an exhausted
// ArrayTypeIndex registry, is rejected with ErrTooManyArrayTypes).
func (m *PageManager) AllocArray(arrTypeIdx int, elemSize, n int) (PageRef, error) {
	if n < 0 {
		return 0, fmt.Errorf("offheap: negative array size %d", n)
	}
	if arrTypeIdx < 0 {
		return 0, ErrTooManyArrayTypes
	}
	ref, err := m.alloc(ArrayHeader + n*elemSize)
	if err != nil {
		return 0, err
	}
	b := m.rt.bytes(ref)
	putU16(b, arrayTypeBit|uint16(arrTypeIdx))
	putU32(b[4:], uint32(n))
	m.rt.stats.records.Add(1)
	m.maybeEvict()
	return ref, nil
}

// maybeEvict drains the disk tier to its low watermark once the resident
// count crosses the high watermark. Allocation returns are eviction
// points: the allocating thread holds no record bytes here.
func (m *PageManager) maybeEvict() {
	if t := m.rt.tier; t != nil && t.resident.Load() > t.high {
		m.rt.evict(m.stop, t.low)
	}
}

// IterScope manages a thread's stack of page managers: the default
// manager at the bottom, one manager per active (sub-)iteration above it.
type IterScope struct {
	rt       *Runtime
	stack    []*PageManager
	nextIter *int
	threadID int
	cache    *pageCache
}

// NewIterScope creates the scope for a thread whose default manager is a
// child of parent (the manager current in the creating thread; nil for the
// first thread). nextIter supplies global iteration IDs; stop is the
// thread's StopWorld, nil when it is the store's only mutator.
func (rt *Runtime) NewIterScope(parent *PageManager, nextIter *int, threadID int, stop StopWorld) *IterScope {
	def := rt.NewManager(parent, -1, threadID)
	c := &pageCache{}
	def.cache = c
	def.stop = stop
	return &IterScope{rt: rt, stack: []*PageManager{def}, nextIter: nextIter, threadID: threadID, cache: c}
}

// Safepoint runs the eviction a promotion requested when it lifted the
// resident count past the high watermark. The VM calls it at its
// safepoint polls, where the thread holds no record bytes.
func (s *IterScope) Safepoint() {
	if s.rt.evictWanted.Load() {
		s.evictRequested()
	}
}

func (s *IterScope) evictRequested() {
	s.rt.evictWanted.Store(false)
	if t := s.rt.tier; t != nil && t.resident.Load() > t.high {
		s.rt.evict(s.Current().stop, t.low)
	}
}

// Current returns the manager new records should be allocated from.
func (s *IterScope) Current() *PageManager { return s.stack[len(s.stack)-1] }

// Default returns the thread-default manager ⟨⊥, t⟩.
func (s *IterScope) Default() *PageManager { return s.stack[0] }

// IterationStart opens a (sub-)iteration: a child manager of the current
// one becomes the allocation target.
func (s *IterScope) IterationStart() {
	id := *s.nextIter
	*s.nextIter = id + 1
	m := s.rt.NewManager(s.Current(), id, s.threadID)
	m.cache = s.cache
	m.stop = s.Current().stop
	s.stack = append(s.stack, m)
}

// IterationEnd closes the innermost iteration and releases its pages (and
// those of any nested iterations and spawned threads parented under it).
func (s *IterScope) IterationEnd() {
	if len(s.stack) == 1 {
		panic("offheap: IterationEnd without matching IterationStart")
	}
	m := s.Current()
	s.stack = s.stack[:len(s.stack)-1]
	m.ReleaseAll()
}

// Close releases the thread's default manager (thread termination) and
// hands the scope's cached pages back to the global pool.
func (s *IterScope) Close() {
	for len(s.stack) > 1 {
		s.IterationEnd()
	}
	s.stack[0].ReleaseAll()
	s.drainCache()
}

// drainCache moves cached pages to the runtime free pool. The pages were
// already stat-released when they entered the cache, so only the free-list
// append remains (they are simply dropped under DisableRecycle, like any
// released page).
func (s *IterScope) drainCache() {
	s.cache.mu.Lock()
	entries := s.cache.entries
	s.cache.entries = nil
	s.cache.mu.Unlock()
	if len(entries) == 0 || s.rt.DisableRecycle {
		return
	}
	s.rt.mu.Lock()
	for _, e := range entries {
		s.rt.free = append(s.rt.free, e.p)
	}
	s.rt.mu.Unlock()
}

// CachedPages returns the number of pages parked in the scope cache
// (observability and tests).
func (s *IterScope) CachedPages() int {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	return len(s.cache.entries)
}

// Depth returns the number of open iterations.
func (s *IterScope) Depth() int { return len(s.stack) - 1 }
