package offheap

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// The disk tier extends the page store down one storage level: cold pages
// spill to a file and promote back on access, so a dataset can exceed the
// DRAM the store is allowed to keep resident. Because records are
// self-contained native pages (no object graph, no GC metadata), eviction
// is a PageSize copy, not a serialization pass — "move the data, don't
// serialize it".
//
// Resolution stays transparent: a PageRef is valid whether its page is in
// DRAM or on disk. A record access loads the page's state word once and
// promotes the page under its mutex when it is on disk. Eviction never
// runs inside an accessor: it runs at allocation and quota checks and, when
// a promotion lifted the resident count past the high watermark, at the
// next safepoint poll — always inside the heap's stop-the-world routine
// (StopWorld), so no accessor is in flight while a victim's buffer is torn
// down. Victims come from a second-chance clock sweep over the resident
// PageSize pages; a manager's current bump page is never one.
//
// Lock order: rt.mu → tier.mu and page.mu → tier.mu. tier.mu guards the
// spill-file slot allocator and the candidate list.

// TierConfig configures the disk tier (EnableTiering).
type TierConfig struct {
	// Dir is the directory for the spill file (created with
	// os.CreateTemp, removed at Reset/teardown). Empty means os.TempDir.
	Dir string
	// HighWater is the DRAM-resident page count that triggers eviction;
	// LowWater is the count eviction drains down to, 0 < LowWater <=
	// HighWater. LowWater 0 means HighWater/2 (at least 1).
	HighWater int
	LowWater  int
}

// StopWorld runs fn while every other mutator thread of the VM is parked
// at a heap safepoint: heap.StopTheWorld bound to the calling thread's
// context. The VM gives one to each thread's IterScope. A nil StopWorld
// declares the caller the store's only mutator, and eviction runs inline.
type StopWorld func(fn func())

// TierFault carries a disk-tier I/O failure across the infallible record
// accessors: a failed promotion panics with *TierFault, which the VM call
// boundary recovers into the wrapped error. Err wraps ErrPageExhausted, so
// engines walk the same degradation ladder they use for memory exhaustion.
type TierFault struct{ Err error }

func (f *TierFault) Error() string { return "offheap: tier fault: " + f.Err.Error() }
func (f *TierFault) Unwrap() error { return f.Err }

// Page tier states (page.state).
const (
	pageHot    uint32 = iota // resident, referenced since the last sweep
	pageCold                 // resident, the clock hand cleared its reference
	pageOnDisk               // body in the spill file, buf nil
)

// tier is the disk tier's state: the spill file, its slot allocator, and
// the eviction candidate list (live resident PageSize pages).
type tier struct {
	high, low int64
	file      *os.File

	mu         sync.Mutex
	freeSlots  []int
	nextSlot   int
	candidates []*page
	hand       int // clock hand into candidates

	// resident/disk split of pagesLive (resident + disk == live).
	resident atomic.Int64
	disk     atomic.Int64

	cSpilled      *obs.Counter
	cPromoted     *obs.Counter
	cSpillBytes   *obs.Counter
	cPromoteBytes *obs.Counter
	gResident     *obs.Gauge
	gDisk         *obs.Gauge
	hSpillStall   *obs.Histogram
	hPromoteStall *obs.Histogram
	cFaultSpill   *obs.Counter
	cFaultLoad    *obs.Counter
}

// EnableTiering attaches a disk tier to the store. Must be called before
// any page is allocated (the candidate list is built from acquires) and
// after SetFaultInjector. Reset tears the tier down again — a reused store
// does not inherit the previous job's tier.
func (rt *Runtime) EnableTiering(cfg TierConfig) error {
	if rt.tier != nil {
		return errors.New("offheap: tiering already enabled")
	}
	if cfg.HighWater <= 0 {
		return errors.New("offheap: tiering needs a positive high watermark")
	}
	if cfg.LowWater == 0 {
		cfg.LowWater = max(cfg.HighWater/2, 1)
	}
	if cfg.LowWater < 0 || cfg.LowWater > cfg.HighWater {
		return fmt.Errorf("offheap: low watermark %d must be in 1..%d", cfg.LowWater, cfg.HighWater)
	}
	if rt.stats.pagesLive.Load() != 0 {
		return errors.New("offheap: tiering must be enabled before pages are live")
	}
	f, err := os.CreateTemp(cfg.Dir, "spill-*.pages")
	if err != nil {
		return fmt.Errorf("offheap: spill file: %w", err)
	}
	reg := rt.obs
	rt.tier = &tier{
		high:          int64(cfg.HighWater),
		low:           int64(cfg.LowWater),
		file:          f,
		cSpilled:      reg.Counter(obs.CtrPagesSpilled),
		cPromoted:     reg.Counter(obs.CtrPagesPromoted),
		cSpillBytes:   reg.Counter(obs.CtrSpillBytes),
		cPromoteBytes: reg.Counter(obs.CtrPromoteBytes),
		gResident:     reg.Gauge(obs.GaugePagesResident),
		gDisk:         reg.Gauge(obs.GaugePagesDisk),
		hSpillStall:   reg.Histogram(obs.HistSpillStall, obs.GCPauseBounds),
		hPromoteStall: reg.Histogram(obs.HistPromoteStall, obs.GCPauseBounds),
		cFaultSpill:   reg.Counter(obs.CtrFaultTierSpill),
		cFaultLoad:    reg.Counter(obs.CtrFaultTierLoad),
	}
	return nil
}

// Tiered reports whether the store has a disk tier attached.
func (rt *Runtime) Tiered() bool { return rt.tier != nil }

// closeTier tears down the tier: close and remove the spill file and
// detach. Pages still spilled lose their bodies — callers (Reset) ensure
// no page is live.
func (rt *Runtime) closeTier() error {
	t := rt.tier
	if t == nil {
		return nil
	}
	rt.tier = nil
	err := t.file.Close()
	if rerr := os.Remove(t.file.Name()); err == nil {
		err = rerr
	}
	return err
}

// --- candidate list and slots (tier.mu held) ---

func (t *tier) addCandidateLocked(p *page) {
	if p.candIdx != -1 {
		return
	}
	p.candIdx = len(t.candidates)
	t.candidates = append(t.candidates, p)
}

func (t *tier) removeCandidateLocked(p *page) {
	i := p.candIdx
	if i < 0 {
		return
	}
	last := len(t.candidates) - 1
	t.candidates[i] = t.candidates[last]
	t.candidates[i].candIdx = i
	t.candidates[last] = nil
	t.candidates = t.candidates[:last]
	p.candIdx = -1
	if t.hand > last {
		t.hand = 0
	}
}

func (t *tier) allocSlotLocked() int {
	if n := len(t.freeSlots); n > 0 {
		slot := t.freeSlots[n-1]
		t.freeSlots = t.freeSlots[:n-1]
		return slot
	}
	t.nextSlot++
	return t.nextSlot - 1
}

// --- acquire/release bookkeeping ---

// tierAcquire records a page entering the live set resident and registers
// it as an eviction candidate when it is a standard PageSize page. No-op
// when untiered.
func (rt *Runtime) tierAcquire(p *page) {
	t := rt.tier
	if t == nil {
		return
	}
	p.state.Store(pageHot)
	t.resident.Add(1)
	t.gResident.Add(1)
	if len(p.buf) == PageSize {
		t.mu.Lock()
		t.addCandidateLocked(p)
		t.mu.Unlock()
	}
}

// tierRelease records a page leaving the live set: a resident page is
// deregistered from the candidate list; a spilled page has its disk slot
// freed without ever being read back — the whole point of iteration-end
// bulk release. Releases run in mutator state, so never during an
// eviction. No-op when untiered.
func (rt *Runtime) tierRelease(p *page) {
	t := rt.tier
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if p.state.Load() == pageOnDisk {
		t.freeSlots = append(t.freeSlots, p.slot)
		p.state.Store(pageHot)
		t.disk.Add(-1)
		t.gDisk.Add(-1)
		return
	}
	t.removeCandidateLocked(p)
	t.resident.Add(-1)
	t.gResident.Add(-1)
}

// --- eviction ---

// evict spills cold pages until at most target pages are resident or
// nothing evictable remains. The spill runs inside stop, with every other
// mutator parked; the caller holds no record bytes.
func (rt *Runtime) evict(stop StopWorld, target int64) {
	if stop == nil {
		rt.evictStopped(target)
		return
	}
	stop(func() { rt.evictStopped(target) })
}

// evictStopped is evict's body, run with the world stopped.
func (rt *Runtime) evictStopped(target int64) {
	t := rt.tier
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.resident.Load() > target {
		p := t.victimLocked()
		if p == nil || rt.spillLocked(p) != nil {
			return // best effort: the store degrades toward the quota/OME rungs
		}
	}
}

// victimLocked runs the second-chance clock sweep: a hot page is marked
// cold and skipped, a cold one is the victim. Bump pages never are. Nil
// when a full sweep finds nothing evictable.
func (t *tier) victimLocked() *page {
	for i := 2 * len(t.candidates); i > 0; i-- {
		if t.hand >= len(t.candidates) {
			t.hand = 0
		}
		p := t.candidates[t.hand]
		t.hand++
		if p.bump {
			continue
		}
		if p.state.Load() == pageHot {
			p.state.Store(pageCold) // second chance
			continue
		}
		return p
	}
	return nil
}

// spillLocked writes p's body to a disk slot and drops the DRAM buffer.
// World stopped, tier.mu held. On error the page stays resident.
func (rt *Runtime) spillLocked(p *page) error {
	t := rt.tier
	if rt.inj != nil && rt.inj.Fire(faults.TierSpill) {
		n := t.cFaultSpill.Load() + 1
		t.cFaultSpill.Inc()
		rt.obs.Emit(obs.EvFault, string(faults.TierSpill), n, 0, 0)
		return fmt.Errorf("offheap: tier spill: injected fault")
	}
	start := time.Now()
	slot := t.allocSlotLocked()
	if _, err := t.file.WriteAt(p.buf, int64(slot)*PageSize); err != nil {
		t.freeSlots = append(t.freeSlots, slot)
		return fmt.Errorf("offheap: tier spill: %w", err)
	}
	t.removeCandidateLocked(p)
	t.hSpillStall.Observe(time.Since(start).Nanoseconds())
	p.slot = slot
	p.buf = nil
	p.state.Store(pageOnDisk)
	t.resident.Add(-1)
	t.gResident.Add(-1)
	t.disk.Add(1)
	t.gDisk.Add(1)
	t.cSpilled.Inc()
	t.cSpillBytes.Add(PageSize)
	rt.addBytes(-PageSize) // bytesInUse counts DRAM only
	return nil
}

// --- promotion ---

// touch is the out-of-line half of record resolution, taken when the
// page is not hot. A cold page is marked referenced again. A spilled page
// is promoted under its mutex; a failed promotion panics with *TierFault,
// recovered at the VM call boundary.
func (rt *Runtime) touch(p *page) {
	if p.state.Load() == pageCold {
		p.state.Store(pageHot)
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state.Load() != pageOnDisk {
		return // another thread promoted it first
	}
	if err := rt.promoteLocked(p); err != nil {
		panic(&TierFault{Err: err})
	}
}

// promoteLocked reads p's body back from its disk slot; p.mu is held. A
// failed read (injected TierLoad or real I/O error) leaves the page
// spilled and returns an error wrapping ErrPageExhausted. A promotion
// past the high watermark requests an eviction at the next safepoint
// poll — never here, where the caller is mid-access.
func (rt *Runtime) promoteLocked(p *page) error {
	t := rt.tier
	if rt.inj != nil && rt.inj.Fire(faults.TierLoad) {
		n := t.cFaultLoad.Load() + 1
		t.cFaultLoad.Inc()
		rt.obs.Emit(obs.EvFault, string(faults.TierLoad), n, 0, 0)
		return fmt.Errorf("%w (injected tier load fault)", ErrPageExhausted)
	}
	buf := make([]byte, PageSize)
	start := time.Now()
	if _, err := t.file.ReadAt(buf, int64(p.slot)*PageSize); err != nil {
		return fmt.Errorf("%w (tier load: %v)", ErrPageExhausted, err)
	}
	t.mu.Lock()
	t.freeSlots = append(t.freeSlots, p.slot)
	t.addCandidateLocked(p)
	t.mu.Unlock()
	t.hPromoteStall.Observe(time.Since(start).Nanoseconds())
	p.buf = buf
	p.state.Store(pageHot)
	t.disk.Add(-1)
	t.gDisk.Add(-1)
	t.gResident.Add(1)
	t.cPromoted.Inc()
	t.cPromoteBytes.Add(PageSize)
	rt.addBytes(PageSize)
	if t.resident.Add(1) > t.high {
		rt.evictWanted.Store(true)
	}
	return nil
}
