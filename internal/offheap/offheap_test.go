package offheap

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/faults"
	"repro/internal/lang"
)

func newScope(rt *Runtime, iterCounter *int, tid int) *IterScope {
	return rt.NewIterScope(nil, iterCounter, tid, nil)
}

func mustRecord(t testing.TB, m *PageManager, typeID uint16, size int) PageRef {
	t.Helper()
	ref, err := m.AllocRecord(typeID, size)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func TestRecordRoundtrip(t *testing.T) {
	rt := NewRuntime()
	ic := 0
	s := newScope(rt, &ic, 0)
	defer s.Close()
	ref := mustRecord(t, s.Current(), 7, 64)
	if rt.ClassID(ref) != 7 || rt.IsArrayRecord(ref) {
		t.Fatal("bad scalar header")
	}
	rt.SetInt(ref, 0, -123)
	rt.SetLong(ref, 8, 1<<40)
	rt.SetDouble(ref, 16, 3.25)
	rt.SetByte(ref, 24, -5)
	rt.SetRef(ref, 32, ref)
	if rt.GetInt(ref, 0) != -123 || rt.GetLong(ref, 8) != 1<<40 ||
		rt.GetDouble(ref, 16) != 3.25 || rt.GetByte(ref, 24) != -5 ||
		rt.GetRef(ref, 32) != ref {
		t.Fatal("record field roundtrip failed")
	}
}

func TestArrayRecord(t *testing.T) {
	rt := NewRuntime()
	ic := 0
	s := newScope(rt, &ic, 0)
	defer s.Close()
	idx := rt.ArrayTypeIndex(lang.IntType)
	ref, err := s.Current().AllocArray(idx, 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !rt.IsArrayRecord(ref) || rt.ArrayLen(ref) != 1000 || rt.ArrayTypeOf(ref) != idx {
		t.Fatal("bad array header")
	}
	for i := 0; i < 1000; i++ {
		rt.SetInt(ref, i*4, int32(i))
	}
	for i := 0; i < 1000; i++ {
		if rt.GetInt(ref, i*4) != int32(i) {
			t.Fatalf("elem %d", i)
		}
	}
}

func TestHeaderSizesMatchPaper(t *testing.T) {
	// Figure 1: 4-byte record header, 8 bytes for arrays (2-byte type ID,
	// 2-byte lock, 4-byte length).
	if ScalarHeader != 4 || ArrayHeader != 8 {
		t.Fatalf("headers %d/%d", ScalarHeader, ArrayHeader)
	}
}

// TestRecordValuesSurviveRandomOps is a property test over random record
// writes: values read back must match a shadow model.
func TestRecordValuesSurviveRandomOps(t *testing.T) {
	check := func(seed int64) bool {
		rt := NewRuntime()
		ic := 0
		s := newScope(rt, &ic, 0)
		defer s.Close()
		rng := rand.New(rand.NewSource(seed))
		type slot struct {
			ref PageRef
			off int
		}
		shadow := make(map[slot]int64)
		var refs []PageRef
		for i := 0; i < 50; i++ {
			refs = append(refs, mustRecord(t, s.Current(), uint16(i%100), 128))
		}
		for op := 0; op < 2000; op++ {
			sl := slot{refs[rng.Intn(len(refs))], rng.Intn(15) * 8}
			v := rng.Int63()
			rt.SetLong(sl.ref, sl.off, v)
			shadow[sl] = v
		}
		for sl, v := range shadow {
			if rt.GetLong(sl.ref, sl.off) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestIterationReclaimsPages(t *testing.T) {
	rt := NewRuntime()
	ic := 0
	s := newScope(rt, &ic, 0)
	defer s.Close()
	for iter := 0; iter < 10; iter++ {
		s.IterationStart()
		for i := 0; i < 10000; i++ {
			s.Current().AllocRecord(1, 48)
		}
		s.IterationEnd()
	}
	st := rt.Stats()
	// Pages must be recycled across iterations: the distinct page count
	// should be roughly one iteration's worth, not ten.
	if st.PagesCreated > 40 {
		t.Fatalf("pages created = %d; recycling is not working", st.PagesCreated)
	}
	if st.PagesRecycled == 0 {
		t.Fatal("no pages were recycled")
	}
	if st.PagesLive != 0 {
		t.Fatalf("%d pages still live after all iterations ended", st.PagesLive)
	}
}

func TestNestedIterations(t *testing.T) {
	rt := NewRuntime()
	ic := 0
	s := newScope(rt, &ic, 0)
	defer s.Close()
	s.IterationStart()
	outer := s.Current()
	outerRec := mustRecord(t, outer, 1, 32)
	rt.SetInt(outerRec, 0, 77)
	for sub := 0; sub < 5; sub++ {
		s.IterationStart()
		if s.Depth() != 2 {
			t.Fatalf("depth %d", s.Depth())
		}
		for i := 0; i < 5000; i++ {
			s.Current().AllocRecord(2, 64)
		}
		s.IterationEnd()
	}
	// Outer iteration's data is untouched by sub-iteration reclamation.
	if rt.GetInt(outerRec, 0) != 77 {
		t.Fatal("outer record corrupted by sub-iteration release")
	}
	s.IterationEnd()
	if rt.Stats().PagesLive != 0 {
		t.Fatal("pages leak after outer iteration end")
	}
}

func TestThreadManagerParentedUnderIteration(t *testing.T) {
	// A thread spawned during an iteration gets a manager parented under
	// that iteration's manager; ending the iteration reclaims the
	// (closed) thread's pages too.
	rt := NewRuntime()
	ic := 0
	main := newScope(rt, &ic, 0)
	defer main.Close()
	main.IterationStart()
	child := rt.NewIterScope(main.Current(), &ic, 1, nil)
	child.Current().AllocRecord(3, 64)
	// Thread finishes without closing explicitly: the subtree release at
	// iteration end must still reclaim it.
	main.IterationEnd()
	if rt.Stats().PagesLive != 0 {
		t.Fatalf("%d pages live; thread manager not released with iteration", rt.Stats().PagesLive)
	}
	if !child.Default().Released() {
		t.Fatal("child default manager not released")
	}
}

func TestOversizeAllocation(t *testing.T) {
	rt := NewRuntime()
	ic := 0
	s := newScope(rt, &ic, 0)
	defer s.Close()
	idx := rt.ArrayTypeIndex(lang.ByteType)
	ref, err := s.Current().AllocArray(idx, 1, 5*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if rt.ArrayLen(ref) != 5*PageSize {
		t.Fatal("oversize length wrong")
	}
	rt.SetByte(ref, 5*PageSize-1, 42)
	if rt.GetByte(ref, 5*PageSize-1) != 42 {
		t.Fatal("oversize tail write failed")
	}
	if rt.Stats().Oversize != 1 {
		t.Fatalf("oversize count %d", rt.Stats().Oversize)
	}
}

func TestLargeRecordGetsOwnPage(t *testing.T) {
	rt := NewRuntime()
	ic := 0
	s := newScope(rt, &ic, 0)
	defer s.Close()
	// Two large-but-not-oversize arrays must land on distinct pages
	// ("large arrays are allocated on empty pages").
	idx := rt.ArrayTypeIndex(lang.ByteType)
	a, _ := s.Current().AllocArray(idx, 1, PageSize*3/4)
	b, _ := s.Current().AllocArray(idx, 1, PageSize*3/4)
	pa, _ := splitRef(a)
	pb, _ := splitRef(b)
	if pa == pb {
		t.Fatal("two large arrays share a page")
	}
}

func TestContiguousSmallAllocations(t *testing.T) {
	rt := NewRuntime()
	ic := 0
	s := newScope(rt, &ic, 0)
	defer s.Close()
	// Policy 1: consecutive small records of the same size class are
	// contiguous within a page.
	a := mustRecord(t, s.Current(), 1, 20)
	b := mustRecord(t, s.Current(), 1, 20)
	pa, oa := splitRef(a)
	pb, ob := splitRef(b)
	if pa != pb || ob != oa+24 { // 4-byte header + 20 rounded to 24
		t.Fatalf("not contiguous: page %d off %d -> page %d off %d", pa, oa, pb, ob)
	}
}

// ---------------------------------------------------------------------------
// Lock pool

func TestLockPoolMutualExclusion(t *testing.T) {
	rt := NewRuntime()
	ic := 0
	s := newScope(rt, &ic, 0)
	defer s.Close()
	rec := mustRecord(t, s.Current(), 1, 16)
	rt.SetInt(rec, 0, 0)

	const nThreads = 8
	const perThread = 1000
	var wg sync.WaitGroup
	for i := 0; i < nThreads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// A distinct owner per goroutine: pointers to zero-size values
			// may all be equal, which would make every goroutine the same
			// reentrant owner.
			owner := new(int)
			for j := 0; j < perThread; j++ {
				if err := rt.Locks.Enter(rt, rec, owner, nil); err != nil {
					t.Error(err)
					return
				}
				v := rt.GetInt(rec, 0)
				rt.SetInt(rec, 0, v+1)
				if err := rt.Locks.Exit(rt, rec, owner); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if got := rt.GetInt(rec, 0); got != nThreads*perThread {
		t.Fatalf("counter = %d, want %d (lock pool does not exclude)", got, nThreads*perThread)
	}
	// After the last exit the lock returns to the pool and the record's
	// lock field is zeroed (§3.4).
	if rt.GetLockID(rec) != 0 {
		t.Fatal("record lock field not zeroed after release")
	}
	if rt.Locks.InUse() != 0 {
		t.Fatalf("%d locks still in use", rt.Locks.InUse())
	}
}

func TestLockPoolReentrancy(t *testing.T) {
	rt := NewRuntime()
	ic := 0
	s := newScope(rt, &ic, 0)
	defer s.Close()
	rec := mustRecord(t, s.Current(), 1, 16)
	owner := &struct{}{}
	for i := 0; i < 3; i++ {
		if err := rt.Locks.Enter(rt, rec, owner, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := rt.Locks.Exit(rt, rec, owner); err != nil {
			t.Fatal(err)
		}
	}
	if rt.Locks.InUse() != 0 {
		t.Fatal("reentrant lock not released")
	}
}

func TestLockPoolBound(t *testing.T) {
	// The number of pool locks in use is bounded by concurrent
	// synchronization, not by the number of records ever locked.
	rt := NewRuntime()
	ic := 0
	s := newScope(rt, &ic, 0)
	defer s.Close()
	owner := &struct{}{}
	for i := 0; i < 10000; i++ {
		rec := mustRecord(t, s.Current(), 1, 16)
		if err := rt.Locks.Enter(rt, rec, owner, nil); err != nil {
			t.Fatal(err)
		}
		if err := rt.Locks.Exit(rt, rec, owner); err != nil {
			t.Fatal(err)
		}
	}
	if peak := rt.Locks.PeakInUse(); peak != 1 {
		t.Fatalf("peak locks %d, want 1: locks are not recycled", peak)
	}
}

func TestLockPoolExitErrors(t *testing.T) {
	rt := NewRuntime()
	ic := 0
	s := newScope(rt, &ic, 0)
	defer s.Close()
	rec := mustRecord(t, s.Current(), 1, 16)
	if err := rt.Locks.Exit(rt, rec, &struct{}{}); err == nil {
		t.Fatal("exit without enter must fail")
	}
	a, b := &struct{}{}, &struct{}{}
	if err := rt.Locks.Enter(rt, rec, a, nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.Locks.Exit(rt, rec, b); err == nil {
		t.Fatal("exit by non-owner must fail")
	}
	if err := rt.Locks.Exit(rt, rec, a); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseOversizeEarly(t *testing.T) {
	rt := NewRuntime()
	ic := 0
	s := newScope(rt, &ic, 0)
	defer s.Close()
	s.IterationStart()
	idx := rt.ArrayTypeIndex(lang.ByteType)
	big, _ := s.Current().AllocArray(idx, 1, 4*PageSize)
	small := mustRecord(t, s.Current(), 1, 32)
	before := rt.Stats().BytesInUse
	if !rt.ReleaseOversize(big) {
		t.Fatal("oversize page not released")
	}
	if rt.Stats().BytesInUse >= before {
		t.Fatal("bytes not reclaimed")
	}
	// Double release (iteration end) must be harmless, and small records
	// on shared pages must be refused.
	if rt.ReleaseOversize(small) {
		t.Fatal("released a shared page")
	}
	if rt.ReleaseOversize(0) {
		t.Fatal("released null")
	}
	s.IterationEnd()
	if rt.Stats().PagesLive != 0 {
		t.Fatalf("%d pages live after iteration end", rt.Stats().PagesLive)
	}
}

func TestReleasedManagerAllocError(t *testing.T) {
	rt := NewRuntime()
	ic := 0
	s := newScope(rt, &ic, 0)
	defer s.Close()
	s.IterationStart()
	m := s.Current()
	s.IterationEnd()
	if _, err := m.AllocRecord(1, 16); !errors.Is(err, ErrReleasedManager) {
		t.Fatalf("err = %v, want ErrReleasedManager", err)
	}
	if _, err := m.AllocArray(0, 4, 10); !errors.Is(err, ErrReleasedManager) {
		t.Fatalf("array err = %v, want ErrReleasedManager", err)
	}
}

func TestAllocArrayRejectsExhaustedTypeRegistry(t *testing.T) {
	rt := NewRuntime()
	ic := 0
	s := newScope(rt, &ic, 0)
	defer s.Close()
	// -1 is ArrayTypeIndex's "registry full" answer.
	if _, err := s.Current().AllocArray(-1, 4, 10); !errors.Is(err, ErrTooManyArrayTypes) {
		t.Fatalf("err = %v, want ErrTooManyArrayTypes", err)
	}
}

func TestInjectedPageFault(t *testing.T) {
	rt := NewRuntime()
	rt.SetFaultInjector(faults.New(&faults.Config{Seed: 3, PageAt: 1}))
	ic := 0
	s := newScope(rt, &ic, 0)
	defer s.Close()
	_, err := s.Current().AllocRecord(1, 16)
	if !errors.Is(err, ErrPageExhausted) {
		t.Fatalf("err = %v, want ErrPageExhausted", err)
	}
	// The schedule was one-shot; the next acquire succeeds and the store
	// is unharmed.
	if _, err := s.Current().AllocRecord(1, 16); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().PagesLive != 1 {
		t.Fatalf("pages live = %d after one failed and one good acquire", rt.Stats().PagesLive)
	}
}
