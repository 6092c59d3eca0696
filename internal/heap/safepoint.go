package heap

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Stop-the-world coordination. Mutator threads are either "running"
// (executing IR and touching the heap) or "external" (parked at a
// safepoint, or executing framework Go code that only reaches the heap
// through handles). A collection — or an eviction of the off-heap disk
// tier (internal/offheap) — may proceed only when every registered thread
// except the one stopping the world is external.

type safepointState struct {
	mu      sync.Mutex
	cond    *sync.Cond
	gcMu    sync.Mutex // ownership of a stopped world
	wanted  atomic.Bool
	running int
	threads map[*ThreadCtx]struct{}
}

func (sp *safepointState) init() {
	sp.cond = sync.NewCond(&sp.mu)
	sp.threads = make(map[*ThreadCtx]struct{})
}

// ThreadCtx is the per-VM-thread heap context: its TLAB and safepoint
// state. Every thread that executes IR must hold one and call Safepoint
// regularly (the interpreter does so on calls and loop back-edges).
//
// The context also batches allocation accounting and write-barrier
// entries thread-locally, so the TLAB bump-pointer path touches no shared
// cache line: counters flush to the heap's shared atomics when the thread
// crosses the boundary (BeginExternal); the remembered-set buffer is
// merged when a collection stops the world, or under mu when it fills.
type ThreadCtx struct {
	hp      *Heap
	tlab    TLAB
	running bool

	// Allocation accounting (flushed by flushAllocStats).
	allocBytes   int64
	allocObjects int64
	classCounts  []int64 // per class ID, same indexing as hp.classCounts
	arrCounts    []int64 // per array type index, grown on demand
	histCounts   []int64 // hp.hAllocSize buckets
	histSum      int64
	histMin      int64
	histMax      int64

	// remBuf holds old->young reference slots recorded by the write
	// barrier (SetRefTC) since the last drain.
	remBuf []Addr

	// Lifetime state (lifetime.go): the epoch nesting depth, the stack of
	// live epoch regions (enforce mode), the per-site allocation profile
	// (nil when lifetimes are off), the bounded survival-sample buffer
	// consumed by the collector, and batched placement counters.
	epochDepth   int
	epochs       []epochLevel
	siteAllocs   []int64
	siteBytes    []int64
	samples      []survivalSample
	sampleTick   uint32
	pretenured   int64
	regionAllocs int64
}

// RegisterThread creates a thread context. The context starts external;
// call EndExternal (or run IR through the VM, which does it) to start
// mutating.
func (hp *Heap) RegisterThread() *ThreadCtx {
	tc := &ThreadCtx{
		hp:          hp,
		classCounts: make([]int64, len(hp.classCounts)),
		histCounts:  make([]int64, hp.hAllocSize.NumBuckets()),
		histMin:     math.MaxInt64,
		histMax:     math.MinInt64,
	}
	if n := len(hp.life); n > 0 {
		tc.siteAllocs = make([]int64, n)
		tc.siteBytes = make([]int64, n)
	}
	sp := &hp.sp
	sp.mu.Lock()
	sp.threads[tc] = struct{}{}
	sp.mu.Unlock()
	return tc
}

// UnregisterThread removes the context; the thread must be external.
func (hp *Heap) UnregisterThread(tc *ThreadCtx) {
	tc.flushAllocStats()
	tc.flushRemBuf()
	tc.releaseEpochs()
	tc.samples = nil
	sp := &hp.sp
	sp.mu.Lock()
	if tc.running {
		sp.running--
		tc.running = false
		sp.cond.Broadcast()
	}
	delete(sp.threads, tc)
	sp.mu.Unlock()
}

// BeginExternal marks the thread as not mutating (framework code, blocking
// calls). The thread must not touch heap memory until EndExternal.
// Thread-local allocation counters flush here, so shared Stats lag a
// running mutator by at most one boundary crossing.
func (tc *ThreadCtx) BeginExternal() {
	tc.flushAllocStats()
	sp := &tc.hp.sp
	sp.mu.Lock()
	if tc.running {
		tc.running = false
		sp.running--
		sp.cond.Broadcast()
	}
	sp.mu.Unlock()
}

// EndExternal re-enters mutator state, blocking while a collection is
// pending or in progress. Time spent blocked is recorded in the
// safepoint-wait histogram (the wait is measured only when a collection
// is actually pending, keeping the common path free of clock reads).
func (tc *ThreadCtx) EndExternal() {
	sp := &tc.hp.sp
	sp.mu.Lock()
	if sp.wanted.Load() {
		start := time.Now()
		for sp.wanted.Load() {
			sp.cond.Wait()
		}
		tc.hp.hSafepointWait.Observe(time.Since(start).Nanoseconds())
	}
	if !tc.running {
		tc.running = true
		sp.running++
	}
	sp.mu.Unlock()
}

// FlushStats publishes the thread's batched allocation counters to the
// heap's shared statistics immediately, without leaving mutator state.
// Callers that inspect Stats or per-class counts while a thread is still
// running must flush that thread first; boundary crossings (BeginExternal,
// UnregisterThread) flush automatically.
func (tc *ThreadCtx) FlushStats() {
	tc.flushAllocStats()
}

// Safepoint parks the thread if a collection has been requested. The check
// is a single atomic load when no collection is pending.
func (tc *ThreadCtx) Safepoint() {
	if tc.hp.sp.wanted.Load() {
		tc.park()
	}
}

// park is Safepoint's slow path, kept out of line so the poll inlines.
func (tc *ThreadCtx) park() {
	tc.BeginExternal()
	tc.EndExternal()
}

// Collect runs a collection (minor, or full when full is true) with the
// calling thread as the collector. It returns ErrOutOfMemory if a full
// collection cannot fit the live set.
func (hp *Heap) Collect(tc *ThreadCtx, full bool) error {
	var err error
	hp.StopTheWorld(tc, func() { err = hp.collectSTW(full) })
	return err
}

// StopTheWorld runs fn while every registered thread except tc's is
// external: the one stop/resume routine behind both collection and the
// off-heap disk tier's eviction. Requests from several threads serialize;
// tc leaves in the state (running or external) it entered in.
func (hp *Heap) StopTheWorld(tc *ThreadCtx, fn func()) {
	sp := &hp.sp
	running := tc.running
	tc.BeginExternal()
	sp.gcMu.Lock()
	sp.wanted.Store(true)
	// Wait for every other thread to leave the running state.
	sp.mu.Lock()
	for sp.running > 0 {
		sp.cond.Wait()
	}
	sp.mu.Unlock()

	fn()

	sp.wanted.Store(false)
	sp.mu.Lock()
	sp.cond.Broadcast()
	sp.mu.Unlock()
	sp.gcMu.Unlock()
	if running {
		tc.EndExternal()
	}
}

// invalidateTLABs resets every thread's TLAB after the nursery has been
// recycled. Called with the world stopped.
func (hp *Heap) invalidateTLABs() {
	for tc := range hp.sp.threads {
		tc.tlab = TLAB{}
	}
}
