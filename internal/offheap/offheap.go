// Package offheap implements the FACADE runtime's native-memory data store
// (§2.1, §3.6 of the paper): fixed-size 32 KB pages carved into size
// classes, an "oversize" class for records larger than a page, and a tree
// of page managers keyed by ⟨iterationID, thread⟩ that supports
// iteration-based bulk reclamation with nested sub-iterations.
//
// Data records stored here are never seen by the managed heap's garbage
// collector; that is the entire point. A record is addressed by a 64-bit
// page reference (PageRef) and laid out exactly like the body of the
// corresponding heap object, preceded by a compact header (Figure 1):
//
//	scalar record: [type ID u16][lock ID u16]             = 4-byte header
//	array record:  [type ID u16][lock ID u16][length u32] = 8-byte header
//
// versus the 12/16-byte headers of managed objects — the space saving the
// paper reports comes directly from this difference plus the removal of GC
// metadata.
//
// As with real native memory, a reference into a page that has been
// released by its iteration dangles: it reads whatever the recycled page
// now contains. The paper's correctness argument (§3.7) excludes this by
// the user's iteration specification, and so do we.
package offheap

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/obs"
)

// Typed allocation errors. These propagate through the VM boundary like
// heap.ErrOutOfMemory does, so both injected faults and programmer errors
// are recoverable and testable instead of process-killing panics.
var (
	// ErrReleasedManager is returned for an allocation from a page
	// manager whose iteration has already been released (§3.6: a record
	// must not outlive its iteration).
	ErrReleasedManager = errors.New("offheap: allocation from a released page manager")
	// ErrTooManyArrayTypes is returned when the dense array-type registry
	// is exhausted (the type word reserves 14 bits for the index).
	ErrTooManyArrayTypes = errors.New("offheap: too many distinct array element types")
	// ErrPageExhausted is returned when a page acquire fails — via
	// injected faults or an exceeded page quota, standing in for native
	// allocation failure.
	ErrPageExhausted = errors.New("offheap: page store exhausted")
	// ErrPageQuota wraps ErrPageExhausted for acquires denied by a tenant
	// page quota (SetPageQuota), so quota overruns ride the same OOM
	// degradation rails while staying distinguishable with errors.Is.
	ErrPageQuota = fmt.Errorf("%w: page quota exceeded", ErrPageExhausted)
)

// PageRef is a reference to a record in native memory: the page index+1 in
// the high 32 bits and the byte offset within the page in the low 32 bits.
// 0 is null.
type PageRef = int64

// PageSize is the fixed page size (32 KB, "a common practice in the
// database design").
const PageSize = 32 << 10

// Record header layout.
const (
	// ScalarHeader and ArrayHeader are the record header sizes.
	ScalarHeader = 4
	ArrayHeader  = 8

	arrayTypeBit uint16 = 1 << 14
)

// MakeRef builds a PageRef from a page index and offset.
func MakeRef(pageIdx int, off int) PageRef {
	return PageRef(int64(pageIdx+1)<<32 | int64(off))
}

func splitRef(r PageRef) (pageIdx, off int) {
	return int(r>>32) - 1, int(r & 0xffffffff)
}

// page is one native memory block.
type page struct {
	buf []byte
	// state is the disk-tier state (pageHot/pageCold/pageOnDisk, tier.go),
	// the one atomic a record access loads. Always pageHot untiered.
	state atomic.Uint32
	pos   int // bump pointer, owned by the manager currently holding the page
	idx   int // index in the runtime page table
	// released guards against double release: oversize pages can be freed
	// early (§3.6) and would otherwise be freed again at iteration end.
	released atomic.Bool
	// bump is set while a manager bump-allocates into the page; the
	// evictor skips it. Written by the owning thread in mutator state,
	// read with the world stopped.
	bump bool

	// Disk-tier bookkeeping (tier.go).
	mu      sync.Mutex // serializes promotions of the page
	slot    int        // spill-file slot while on disk
	candIdx int        // under tier.mu: index in the candidate list, -1 if absent
}

// Runtime owns all pages, the free-page pool, the array type registry, and
// the shared lock pool.
type Runtime struct {
	// DisableRecycle turns off the free-page pool (ablation: every page
	// released at an iteration end is dropped and later allocations get
	// fresh pages).
	DisableRecycle bool
	// DisablePageCache turns off the per-scope page cache (ablation:
	// every recycled page goes through the global pool and rt.mu).
	DisablePageCache bool

	mu   sync.Mutex
	free []*page // recycled pages awaiting reuse
	// table is a copy-on-write page table so record accesses resolve page
	// references without locking.
	table atomic.Pointer[[]*page]

	arrMu    sync.Mutex
	arrTypes []*lang.Type
	arrIndex map[string]int

	Locks *LockPool

	stats struct {
		pagesCreated  atomic.Int64
		pagesRecycled atomic.Int64
		pagesLive     atomic.Int64
		oversize      atomic.Int64
		records       atomic.Int64
		bytesInUse    atomic.Int64
		peakBytes     atomic.Int64
		managers      atomic.Int64
	}

	// Observability instruments (internal/obs).
	obs           *obs.Registry
	cPageAcquires *obs.Counter
	cPageReleases *obs.Counter
	cPageRecycles *obs.Counter
	gPagesLive    *obs.Gauge

	// Fault injection: nil when disabled.
	inj        *faults.Injector
	cFaultsInj *obs.Counter

	// quota caps simultaneously live pages (0 = unlimited); acquires past
	// the cap fail with ErrPageQuota. This is the per-tenant offheap
	// budget hook the daemon's admission control leans on. With a disk
	// tier attached the quota caps DRAM-resident pages instead, and an
	// acquire at the cap tries to spill before failing.
	quota atomic.Int64

	// tier is the disk tier, nil unless EnableTiering attached one.
	// Set before the store is shared between threads, cleared by Reset.
	tier *tier
	// evictWanted is set by a promotion that lifted the resident count
	// past the high watermark; the next safepoint poll evicts.
	evictWanted atomic.Bool
}

// Stats is a snapshot of the native store counters.
type Stats struct {
	PagesCreated  int64 // distinct page allocations from the OS (Go) side
	PagesLive     int64 // pages currently owned by some manager
	PagesLiveHW   int64 // high-water mark of simultaneously live pages
	PagesRecycled int64 // page reuses through the free pool
	Oversize      int64 // oversize allocations (> PageSize records)
	Records       int64 // records ever allocated
	BytesInUse    int64 // DRAM bytes held by live pages (spilled bodies excluded)
	PeakBytes     int64
	Managers      int64 // page managers ever created

	// Disk tier (all zero when no tier is attached).
	PagesSpilled  int64 // evictions DRAM -> disk
	PagesPromoted int64 // promotions disk -> DRAM
	PagesResident int64 // live pages currently in DRAM
	PagesDisk     int64 // live pages currently spilled
	SpillBytes    int64
	PromoteBytes  int64
}

// NewRuntime creates an empty native store with a private observability
// registry.
func NewRuntime() *Runtime { return NewRuntimeWith(nil) }

// NewRuntimeWith creates an empty native store publishing its instruments
// to reg (a fresh private registry when nil).
func NewRuntimeWith(reg *obs.Registry) *Runtime {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	rt := &Runtime{
		arrIndex:      make(map[string]int),
		Locks:         NewLockPool(defaultLockPoolSize),
		obs:           reg,
		cPageAcquires: reg.Counter(obs.CtrPageAcquires),
		cPageReleases: reg.Counter(obs.CtrPageReleases),
		cPageRecycles: reg.Counter(obs.CtrPageRecycles),
		gPagesLive:    reg.Gauge(obs.GaugePagesLive),
	}
	empty := make([]*page, 0)
	rt.table.Store(&empty)
	return rt
}

// Obs returns the store's observability registry.
func (rt *Runtime) Obs() *obs.Registry { return rt.obs }

// SetFaultInjector installs a fault injector consulted on every page
// acquire (nil disables injection). Call before the store is shared
// between threads.
func (rt *Runtime) SetFaultInjector(inj *faults.Injector) {
	rt.inj = inj
	if inj != nil && rt.cFaultsInj == nil {
		rt.cFaultsInj = rt.obs.Counter(obs.CtrFaultPageAcquire)
	}
}

// SetPageQuota caps the number of simultaneously live pages (0 removes
// the cap). An acquire that would exceed the quota fails with
// ErrPageQuota, which wraps ErrPageExhausted and therefore takes the same
// recovery path as native allocation failure. Deterministic for a given
// program: the cap is evaluated against the store's live-page gauge, which
// a single-job VM drives deterministically.
func (rt *Runtime) SetPageQuota(pages int64) { rt.quota.Store(pages) }

// PageQuota returns the current live-page cap (0 = unlimited).
func (rt *Runtime) PageQuota() int64 { return rt.quota.Load() }

// checkQuota admits one more live page or returns ErrPageQuota. With a
// disk tier the quota caps DRAM-resident pages, and eviction (under stop)
// runs first — spill is the new first rung of the degradation ladder,
// before budget-halving, before OME.
func (rt *Runtime) checkQuota(stop StopWorld) error {
	q := rt.quota.Load()
	if q <= 0 {
		return nil
	}
	if t := rt.tier; t != nil {
		if t.resident.Load() >= q {
			rt.evict(stop, q-1)
		}
		if t.resident.Load() >= q {
			return fmt.Errorf("%w (quota %d resident pages)", ErrPageQuota, q)
		}
		return nil
	}
	if rt.stats.pagesLive.Load() >= q {
		return fmt.Errorf("%w (quota %d pages)", ErrPageQuota, q)
	}
	return nil
}

// Reset returns the store to its post-New state for reuse by another job,
// keeping the recycled-page free pool warm: free pages are re-indexed into
// a fresh page table so the table does not grow without bound across jobs,
// counters rewind to zero, and the instruments rebind to reg. It fails if
// any page is still live — a job that leaked pages poisons the store, and
// the daemon rebuilds instead of reusing it.
func (rt *Runtime) Reset(reg *obs.Registry, inj *faults.Injector) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if live := rt.stats.pagesLive.Load(); live != 0 {
		return fmt.Errorf("offheap: reset with %d live page(s)", live)
	}
	next := make([]*page, len(rt.free))
	for i, p := range rt.free {
		p.idx = i
		p.pos = 0
		p.released.Store(false)
		p.state.Store(pageHot)
		p.candIdx = -1
		next[i] = p
	}
	rt.table.Store(&next)
	rt.stats.pagesCreated.Store(0)
	rt.stats.pagesRecycled.Store(0)
	rt.stats.pagesLive.Store(0)
	rt.stats.oversize.Store(0)
	rt.stats.records.Store(0)
	rt.stats.bytesInUse.Store(0)
	rt.stats.peakBytes.Store(0)
	rt.stats.managers.Store(0)
	rt.quota.Store(0) // a reused store must not inherit the previous job's cap
	rt.evictWanted.Store(false)
	rt.Locks = NewLockPool(defaultLockPoolSize)
	if reg == nil {
		reg = obs.NewRegistry()
	}
	rt.obs = reg
	rt.cPageAcquires = reg.Counter(obs.CtrPageAcquires)
	rt.cPageReleases = reg.Counter(obs.CtrPageReleases)
	rt.cPageRecycles = reg.Counter(obs.CtrPageRecycles)
	rt.gPagesLive = reg.Gauge(obs.GaugePagesLive)
	rt.inj = inj
	rt.cFaultsInj = nil
	if inj != nil {
		rt.cFaultsInj = reg.Counter(obs.CtrFaultPageAcquire)
	}
	// Tear down the disk tier: a pooled warm VM must not leak spill files
	// (or tier counters) across tenant jobs.
	if err := rt.closeTier(); err != nil {
		return fmt.Errorf("offheap: reset: %w", err)
	}
	return nil
}

// Stats returns a snapshot of the counters.
func (rt *Runtime) Stats() Stats {
	s := Stats{
		PagesCreated:  rt.stats.pagesCreated.Load(),
		PagesLive:     rt.stats.pagesLive.Load(),
		PagesLiveHW:   rt.gPagesLive.HighWater(),
		PagesRecycled: rt.stats.pagesRecycled.Load(),
		Oversize:      rt.stats.oversize.Load(),
		Records:       rt.stats.records.Load(),
		BytesInUse:    rt.stats.bytesInUse.Load(),
		PeakBytes:     rt.stats.peakBytes.Load(),
		Managers:      rt.stats.managers.Load(),
	}
	if t := rt.tier; t != nil {
		s.PagesSpilled = t.cSpilled.Load()
		s.PagesPromoted = t.cPromoted.Load()
		s.PagesResident = t.resident.Load()
		s.PagesDisk = t.disk.Load()
		s.SpillBytes = t.cSpillBytes.Load()
		s.PromoteBytes = t.cPromoteBytes.Load()
	}
	return s
}

// ArrayTypeIndex returns the dense index for an array element type, or -1
// when the registry is exhausted (the allocation sites turn -1 into
// ErrTooManyArrayTypes; lookups of already-registered types never fail).
func (rt *Runtime) ArrayTypeIndex(elem *lang.Type) int {
	key := elem.String()
	rt.arrMu.Lock()
	defer rt.arrMu.Unlock()
	if i, ok := rt.arrIndex[key]; ok {
		return i
	}
	i := len(rt.arrTypes)
	if i >= int(arrayTypeBit) {
		return -1
	}
	rt.arrTypes = append(rt.arrTypes, elem)
	rt.arrIndex[key] = i
	return i
}

// ArrayElemType returns the element type registered under idx.
func (rt *Runtime) ArrayElemType(idx int) *lang.Type {
	rt.arrMu.Lock()
	defer rt.arrMu.Unlock()
	return rt.arrTypes[idx]
}

// getPage allocates or recycles a page of at least size bytes. Pages
// larger than PageSize ("oversize") are never recycled through the pool.
// The faults.PageAcquire point is evaluated first: a firing point fails
// the acquire with ErrPageExhausted, modeling native allocation failure.
// stop is the acquiring thread's (see checkQuota).
func (rt *Runtime) getPage(size int, stop StopWorld) (*page, error) {
	if rt.inj != nil && rt.inj.Fire(faults.PageAcquire) {
		n := rt.cFaultsInj.Load() + 1
		rt.cFaultsInj.Inc()
		rt.obs.Emit(obs.EvFault, string(faults.PageAcquire), n, 0, 0)
		return nil, fmt.Errorf("%w (injected fault)", ErrPageExhausted)
	}
	if err := rt.checkQuota(stop); err != nil {
		return nil, err
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.stats.pagesLive.Add(1)
	rt.cPageAcquires.Inc()
	rt.gPagesLive.Add(1)
	if size <= PageSize {
		size = PageSize
		if n := len(rt.free); n > 0 {
			p := rt.free[n-1]
			rt.free = rt.free[:n-1]
			p.pos = 0
			rt.stats.pagesRecycled.Add(1)
			rt.cPageRecycles.Inc()
			rt.addBytes(int64(len(p.buf)))
			rt.tierAcquire(p)
			return p, nil
		}
	} else {
		rt.stats.oversize.Add(1)
	}
	old := *rt.table.Load()
	p := &page{buf: make([]byte, size), idx: len(old), candIdx: -1}
	next := make([]*page, len(old)+1)
	copy(next, old)
	next[len(old)] = p
	rt.table.Store(&next)
	rt.stats.pagesCreated.Add(1)
	rt.addBytes(int64(size))
	rt.tierAcquire(p)
	return p, nil
}

// noteCachedRecycle replicates getPage's fault point and statistics for a
// PageSize page served from a scope-local cache, so fault schedules and
// observability counters are identical whether a recycled page came from
// the global pool or a cache. Unlike getPage it never takes rt.mu: the
// counters are atomics and no free-list or page-table access is needed —
// this is the lock-free fast path the cache exists for.
func (rt *Runtime) noteCachedRecycle(p *page, stop StopWorld) error {
	if rt.inj != nil && rt.inj.Fire(faults.PageAcquire) {
		n := rt.cFaultsInj.Load() + 1
		rt.cFaultsInj.Inc()
		rt.obs.Emit(obs.EvFault, string(faults.PageAcquire), n, 0, 0)
		return fmt.Errorf("%w (injected fault)", ErrPageExhausted)
	}
	if err := rt.checkQuota(stop); err != nil {
		return err
	}
	rt.stats.pagesLive.Add(1)
	rt.cPageAcquires.Inc()
	rt.gPagesLive.Add(1)
	rt.stats.pagesRecycled.Add(1)
	rt.cPageRecycles.Inc()
	rt.addBytes(int64(len(p.buf)))
	p.pos = 0
	rt.tierAcquire(p)
	return nil
}

// releasePage returns a page to the free pool (or drops oversize pages
// entirely; their table slot keeps the buffer reachable until Go reclaims
// it on table growth, mirroring free() of a large malloc block).
// Idempotent: a page freed early by ReleaseOversize is skipped when its
// manager releases the iteration.
func (rt *Runtime) releasePage(p *page) {
	if p.released.Swap(true) {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.tierRelease(p) // a spilled page's slot is freed without a read-back
	rt.stats.pagesLive.Add(-1)
	rt.cPageReleases.Inc()
	rt.gPagesLive.Add(-1)
	rt.addBytes(-int64(len(p.buf))) // 0 for a spilled page: its DRAM was freed at spill
	if len(p.buf) == PageSize && !rt.DisableRecycle {
		p.released.Store(false) // recyclable pages are reborn via the pool
		rt.free = append(rt.free, p)
	}
}

// cacheRelease parks a recyclable PageSize page in a scope cache instead
// of the global pool, replicating releasePage's statistics without taking
// rt.mu. Reports false when the page is not cacheable (oversize, spilled —
// its buf is nil — or the cache is full), in which case the caller falls
// back to releasePage. The page's released flag stays false, exactly like
// a page reborn through the pool.
func (rt *Runtime) cacheRelease(c *pageCache, p *page, srcIter int) bool {
	if p.released.Load() {
		return true // freed early; nothing left to release
	}
	if len(p.buf) != PageSize || !c.put(p, srcIter) {
		return false
	}
	rt.tierRelease(p)
	rt.stats.pagesLive.Add(-1)
	rt.cPageReleases.Inc()
	rt.gPagesLive.Add(-1)
	rt.addBytes(-int64(len(p.buf)))
	return true
}

// ReleaseOversize frees the oversize page backing ref before its iteration
// ends — §3.6's optimization for large arrays dropped by data-structure
// resizes. Records on regular pages are untouched (they share pages).
// It reports whether a page was released.
func (rt *Runtime) ReleaseOversize(ref PageRef) bool {
	if ref == 0 {
		return false
	}
	idx, off := splitRef(ref)
	if off != 0 {
		return false // not the first record of a page => shared page
	}
	p := (*rt.table.Load())[idx]
	if len(p.buf) <= PageSize {
		return false
	}
	rt.releasePage(p)
	return true
}

func (rt *Runtime) addBytes(d int64) {
	v := rt.stats.bytesInUse.Add(d)
	for {
		cur := rt.stats.peakBytes.Load()
		if v <= cur || rt.stats.peakBytes.CompareAndSwap(cur, v) {
			return
		}
	}
}
