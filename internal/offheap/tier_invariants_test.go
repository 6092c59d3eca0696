package offheap

import (
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/heap"
	"repro/internal/lang"
)

// newTieredRuntime builds a store with a disk tier in a test temp dir.
// The dir is checked empty at test end: a tier must clean up its spill
// file on Reset.
func newTieredRuntime(t *testing.T, high, low int) (*Runtime, string) {
	t.Helper()
	dir := t.TempDir()
	rt := NewRuntime()
	if err := rt.EnableTiering(TierConfig{Dir: dir, HighWater: high, LowWater: low}); err != nil {
		t.Fatal(err)
	}
	return rt, dir
}

// checkTierAccounting asserts the core tier invariant: every live page is
// either resident or on disk, never both, never neither.
func checkTierAccounting(t *testing.T, rt *Runtime) {
	t.Helper()
	s := rt.Stats()
	if s.PagesResident+s.PagesDisk != s.PagesLive {
		t.Fatalf("resident(%d) + disk(%d) != live(%d)", s.PagesResident, s.PagesDisk, s.PagesLive)
	}
	if s.PagesResident < 0 || s.PagesDisk < 0 {
		t.Fatalf("negative tier gauge: resident=%d disk=%d", s.PagesResident, s.PagesDisk)
	}
}

// dedicated allocates a record big enough to get a PageSize page to
// itself — the ideal eviction candidate (never a bump page).
func dedicated(t *testing.T, m *PageManager, typeID uint16) PageRef {
	t.Helper()
	return mustRecord(t, m, typeID, 20000)
}

// onSpillFile runs f as the "portable" subtest: the spill file is read
// and written with positioned file I/O (ReadAt/WriteAt), which works on
// every platform.
func onSpillFile(t *testing.T, f func(t *testing.T)) {
	t.Run("portable", f)
}

func TestTierSpillPromoteRoundtrip(t *testing.T) {
	onSpillFile(t, func(t *testing.T) {
		rt, _ := newTieredRuntime(t, 4, 2)
		ic := 0
		s := newScope(rt, &ic, 0)
		defer s.Close()
		const n = 12
		refs := make([]PageRef, n)
		for i := range refs {
			refs[i] = dedicated(t, s.Current(), uint16(i+1))
			rt.SetLong(refs[i], 0, int64(i)*1_000_003)
			rt.SetDouble(refs[i], 8, float64(i)+0.5)
			checkTierAccounting(t, rt)
		}
		st := rt.Stats()
		if st.PagesSpilled == 0 {
			t.Fatal("watermark pressure produced no spills")
		}
		if st.PagesResident > 4 {
			t.Fatalf("resident %d above high watermark after allocation", st.PagesResident)
		}
		// Reading every record promotes the spilled ones back; the data
		// must be bit-identical to what was written.
		for i, ref := range refs {
			if got := rt.GetLong(ref, 0); got != int64(i)*1_000_003 {
				t.Fatalf("record %d long = %d after spill/promote", i, got)
			}
			if got := rt.GetDouble(ref, 8); got != float64(i)+0.5 {
				t.Fatalf("record %d double = %v after spill/promote", i, got)
			}
			checkTierAccounting(t, rt)
		}
		if rt.Stats().PagesPromoted == 0 {
			t.Fatal("reads of spilled pages did not promote")
		}
	})
}

func TestTierNoDoubleSpillOrPromote(t *testing.T) {
	rt, _ := newTieredRuntime(t, 3, 1)
	ic := 0
	s := newScope(rt, &ic, 0)
	defer s.Close()
	refs := make([]PageRef, 10)
	for i := range refs {
		refs[i] = dedicated(t, s.Current(), 1)
	}
	// Re-touch in rounds: each touch promotes at most once, each eviction
	// spills at most once, and while no page has been released every
	// spill is either still on disk or was promoted back — never both.
	for round := 0; round < 3; round++ {
		for i, ref := range refs {
			rt.SetInt(ref, 0, int32(round*100+i))
		}
	}
	st := rt.Stats()
	if st.PagesSpilled-st.PagesPromoted != st.PagesDisk {
		t.Fatalf("spilled(%d) - promoted(%d) != disk(%d): double spill or double promote",
			st.PagesSpilled, st.PagesPromoted, st.PagesDisk)
	}
	for i, ref := range refs {
		if got := rt.GetInt(ref, 0); got != int32(200+i) {
			t.Fatalf("record %d = %d after churn", i, got)
		}
	}
	checkTierAccounting(t, rt)
}

// pageOf returns the page backing ref.
func pageOf(rt *Runtime, ref PageRef) *page {
	idx, _ := splitRef(ref)
	return (*rt.table.Load())[idx]
}

// newMutatorHeap builds a heap whose stop-the-world protocol the tier
// tests evict under, exactly as VM threads do: every goroutine touching
// the store registers as a heap mutator and polls Safepoint.
func newMutatorHeap(t *testing.T) *heap.Heap {
	t.Helper()
	f, err := lang.Parse("t.fj", "class Object { }")
	if err != nil {
		t.Fatal(err)
	}
	h, err := lang.BuildHierarchy(f)
	if err != nil {
		t.Fatal(err)
	}
	return heap.New(heap.Config{HeapSize: 1 << 20}, h)
}

// mutator registers a running heap thread and returns its context and
// the StopWorld its scopes evict under.
func mutator(hp *heap.Heap) (*heap.ThreadCtx, StopWorld) {
	tc := hp.RegisterThread()
	tc.EndExternal()
	return tc, func(fn func()) { hp.StopTheWorld(tc, fn) }
}

// TestTierEvictionWaitsForRunningReader: an eviction requested by thread
// B must not spill the page running thread A is reading until A polls.
func TestTierEvictionWaitsForRunningReader(t *testing.T) {
	rt, _ := newTieredRuntime(t, 2, 1)
	hp := newMutatorHeap(t)
	ic := 0
	tcA, stopA := mutator(hp)
	a := rt.NewIterScope(nil, &ic, 0, stopA)
	ref := dedicated(t, a.Current(), 1)
	rt.SetLong(ref, 0, 42)
	held := rt.body(ref) // A is mid-access: it holds the page's bytes
	p := pageOf(rt, ref)

	requested := make(chan struct{})
	var once sync.Once
	done := make(chan struct{})
	go func() {
		defer close(done)
		tcB, stopB := mutator(hp)
		defer hp.UnregisterThread(tcB)
		b := rt.NewIterScope(nil, &ic, 1, func(fn func()) {
			once.Do(func() { close(requested) })
			stopB(fn)
		})
		defer b.Close()
		// The third resident page crosses the high watermark: B's
		// allocation requests an eviction down to one page.
		for i := 0; i < 2; i++ {
			if _, err := b.Current().AllocRecord(2, 20000); err != nil {
				t.Error(err)
			}
		}
	}()
	select {
	case <-requested:
	case <-done:
		t.Fatal("B's eviction ran without stopping the world")
	}
	// B is now inside the stop-the-world routine. Give a broken evictor
	// time to go ahead anyway; a correct one waits for A.
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("eviction completed while thread A was running")
	default:
	}
	if p.state.Load() == pageOnDisk || getU64(held) != 42 {
		t.Fatal("page spilled under a running reader")
	}
	tcA.Safepoint() // A parks; B's eviction runs
	<-done
	if p.state.Load() != pageOnDisk {
		t.Fatal("eviction after A polled did not take the cold page")
	}
	if got := rt.GetLong(ref, 0); got != 42 {
		t.Fatalf("page content after spill/promote = %d", got)
	}
	checkTierAccounting(t, rt)
	a.Close()
	tcA.BeginExternal()
	hp.UnregisterThread(tcA)
}

func TestTierBumpPageNeverEvicted(t *testing.T) {
	rt, _ := newTieredRuntime(t, 2, 1)
	ic := 0
	s := newScope(rt, &ic, 0)
	defer s.Close()
	// A small record opens a class-0 bump page; the manager flags it
	// while it is the allocation target, so the eviction pressure from
	// the dedicated pages must never select it.
	ref := mustRecord(t, s.Current(), 1, 32)
	rt.SetInt(ref, 0, 7)
	bump := pageOf(rt, ref)
	for i := 0; i < 10; i++ {
		dedicated(t, s.Current(), 2)
		if bump.state.Load() == pageOnDisk {
			t.Fatalf("evictor spilled the manager's bump page on round %d", i)
		}
		// Bump allocation into the page must keep working under pressure.
		r2 := mustRecord(t, s.Current(), 1, 32)
		rt.SetInt(r2, 0, int32(i))
		if rt.GetInt(r2, 0) != int32(i) {
			t.Fatal("bump allocation corrupted under eviction pressure")
		}
	}
	if rt.GetInt(ref, 0) != 7 {
		t.Fatal("bump page content lost")
	}
}

func TestTierIterationReleaseSkipsReadback(t *testing.T) {
	onSpillFile(t, func(t *testing.T) {
		rt, _ := newTieredRuntime(t, 2, 1)
		ic := 0
		s := newScope(rt, &ic, 0)
		defer s.Close()
		s.IterationStart()
		for i := 0; i < 8; i++ {
			dedicated(t, s.Current(), 1)
		}
		before := rt.Stats()
		if before.PagesDisk == 0 {
			t.Fatal("setup: nothing spilled")
		}
		s.IterationEnd()
		after := rt.Stats()
		if after.PagesPromoted != before.PagesPromoted {
			t.Fatalf("iteration release read %d spilled page(s) back from disk",
				after.PagesPromoted-before.PagesPromoted)
		}
		if after.PagesDisk != 0 || after.PagesLive != 0 {
			t.Fatalf("release left disk=%d live=%d", after.PagesDisk, after.PagesLive)
		}
	})
}

func TestTierQuotaSpillsBeforeFailing(t *testing.T) {
	rt, _ := newTieredRuntime(t, 1000, 999)
	rt.SetPageQuota(3) // caps DRAM-resident pages when tiered
	ic := 0
	s := newScope(rt, &ic, 0)
	defer s.Close()
	refs := make([]PageRef, 10)
	for i := range refs {
		// Untiered, the 4th acquire would fail with ErrPageQuota; with a
		// tier the store spills first — the new first rung of the ladder.
		refs[i] = dedicated(t, s.Current(), 1)
		rt.SetLong(refs[i], 0, int64(i))
	}
	st := rt.Stats()
	if st.PagesResident > 3 {
		t.Fatalf("quota let %d pages stay resident", st.PagesResident)
	}
	if st.PagesSpilled == 0 {
		t.Fatal("quota pressure did not spill")
	}
	for i, ref := range refs {
		if got := rt.GetLong(ref, 0); got != int64(i) {
			t.Fatalf("record %d = %d under quota spill", i, got)
		}
	}
	checkTierAccounting(t, rt)
}

func TestTierLoadFaultSurfacesAsPageExhausted(t *testing.T) {
	rt, _ := newTieredRuntime(t, 2, 1)
	rt.SetFaultInjector(faults.New(&faults.Config{Seed: 5, TierLoadAt: 1}))
	ic := 0
	s := newScope(rt, &ic, 0)
	defer s.Close()
	refs := make([]PageRef, 6)
	for i := range refs {
		refs[i] = dedicated(t, s.Current(), 1)
		rt.SetLong(refs[i], 0, int64(i))
	}
	var tf *TierFault
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("injected TierLoad did not fire on the first promotion")
			}
			var ok bool
			if tf, ok = r.(*TierFault); !ok {
				panic(r)
			}
		}()
		for _, ref := range refs {
			rt.GetLong(ref, 0)
		}
	}()
	if !errors.Is(tf, ErrPageExhausted) || !errors.Is(tf, faults.ErrInjected) {
		t.Fatalf("TierFault %v does not wrap ErrPageExhausted and faults.ErrInjected", tf)
	}
	// The schedule is one-shot: a retry of the same reads succeeds with
	// the original values — the degradation ladder's replay contract.
	for i, ref := range refs {
		if got := rt.GetLong(ref, 0); got != int64(i) {
			t.Fatalf("record %d = %d on retry after injected load fault", i, got)
		}
	}
	checkTierAccounting(t, rt)
}

func TestTierSpillFaultIsBestEffort(t *testing.T) {
	rt, _ := newTieredRuntime(t, 2, 1)
	rt.SetFaultInjector(faults.New(&faults.Config{Seed: 5, TierSpillAt: 1}))
	ic := 0
	s := newScope(rt, &ic, 0)
	defer s.Close()
	refs := make([]PageRef, 8)
	for i := range refs {
		refs[i] = dedicated(t, s.Current(), 1) // first eviction attempt fails silently
		rt.SetLong(refs[i], 0, int64(i))
	}
	for i, ref := range refs {
		if got := rt.GetLong(ref, 0); got != int64(i) {
			t.Fatalf("record %d = %d after injected spill fault", i, got)
		}
	}
	if rt.Stats().PagesSpilled == 0 {
		t.Fatal("one-shot spill fault permanently disabled eviction")
	}
	checkTierAccounting(t, rt)
}

// TestTierSpillFaultIsTyped: eviction swallows a failed spill, but the
// spill point's error wraps faults.ErrInjected like every other injection
// point's, so a caller that does see it can tell it is injected.
func TestTierSpillFaultIsTyped(t *testing.T) {
	rt, _ := newTieredRuntime(t, 64, 32) // no automatic eviction
	rt.SetFaultInjector(faults.New(&faults.Config{Seed: 5, TierSpillAt: 1}))
	ic := 0
	s := newScope(rt, &ic, 0)
	defer s.Close()
	ref := dedicated(t, s.Current(), 1)
	rt.tier.mu.Lock()
	err := rt.spillLocked(pageOf(rt, ref))
	rt.tier.mu.Unlock()
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("spill fault %v does not wrap faults.ErrInjected", err)
	}
	checkTierAccounting(t, rt)
}

func TestTierResetTearsDownSpillFile(t *testing.T) {
	onSpillFile(t, func(t *testing.T) {
		rt, dir := newTieredRuntime(t, 2, 1)
		ic := 0
		s := newScope(rt, &ic, 0)
		for i := 0; i < 6; i++ {
			dedicated(t, s.Current(), 1)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 1 {
			t.Fatalf("expected one spill file during the run, found %d entries", len(ents))
		}
		s.Close()
		if err := rt.Reset(nil, nil); err != nil {
			t.Fatal(err)
		}
		if rt.Tiered() {
			t.Fatal("Reset left the tier attached")
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 0 {
			t.Fatalf("Reset leaked %d spill file(s): %v", len(ents), ents)
		}
		st := rt.Stats()
		if st.PagesSpilled != 0 || st.PagesResident != 0 || st.PagesDisk != 0 {
			t.Fatalf("Reset left tier counters: %+v", st)
		}
	})
}

func TestEnableTieringValidation(t *testing.T) {
	rt := NewRuntime()
	if err := rt.EnableTiering(TierConfig{Dir: t.TempDir(), HighWater: 0, LowWater: 0}); err == nil {
		t.Fatal("zero high watermark accepted")
	}
	if err := rt.EnableTiering(TierConfig{Dir: t.TempDir(), HighWater: 2, LowWater: 5}); err == nil {
		t.Fatal("low watermark above high accepted")
	}
	dir := t.TempDir()
	if err := rt.EnableTiering(TierConfig{Dir: dir, HighWater: 4, LowWater: 2}); err != nil {
		t.Fatal(err)
	}
	if err := rt.EnableTiering(TierConfig{Dir: dir, HighWater: 4, LowWater: 2}); err == nil {
		t.Fatal("double enable accepted")
	}
}
