package offheap

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/heap"
)

// TestTierTorture churns allocation, spill, promotion, and iteration
// release from several goroutines at once under a watermark tight enough
// that the evictor runs constantly. Each goroutine is a registered heap
// mutator thread that polls Safepoint between record operations, as VM
// threads do, so evictions run under the heap's stop-the-world routine.
// Every goroutine re-verifies a shared set of records each round, so a
// lost page body, a double spill, or a promote racing an eviction shows up
// as a value mismatch — and the -race run in CI checks the protocol
// itself. Sibling of internal/heap's GC torture test, one storage level
// down.
func TestTierTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("torture test skipped in -short")
	}
	rt, _ := newTieredRuntime(t, 6, 3)
	hp := newMutatorHeap(t)
	ic := 0
	tc, stop := mutator(hp)
	root := rt.NewIterScope(nil, &ic, 0, stop)

	// Shared records, one dedicated page each, written once and read by
	// every worker: they spill and promote continuously under pressure.
	const nShared = 8
	shared := make([]PageRef, nShared)
	for i := range shared {
		shared[i] = dedicated(t, root.Current(), uint16(i+1))
		rt.SetLong(shared[i], 0, int64(i)*7919)
		rt.SetDouble(shared[i], 8, float64(i)+0.25)
	}
	parent := root.Current()
	tc.BeginExternal() // the main thread sits out while the workers run

	const (
		workers = 4
		rounds  = 60
	)
	// iterMu serializes scope/iteration transitions: the iteration-ID
	// counter is shared and plain (the VM serializes it the same way).
	// A worker waiting for it is external, like a VM thread blocking.
	var iterMu sync.Mutex
	lockIter := func(tc *heap.ThreadCtx) {
		tc.BeginExternal()
		iterMu.Lock()
		tc.EndExternal()
	}
	var failures atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tc, stop := mutator(hp)
			defer hp.UnregisterThread(tc)
			poll := func(s *IterScope) {
				tc.Safepoint()
				s.Safepoint()
			}
			lockIter(tc)
			s := rt.NewIterScope(parent, &ic, w+1, stop)
			iterMu.Unlock()
			defer func() {
				lockIter(tc)
				s.Close()
				iterMu.Unlock()
				tc.BeginExternal()
			}()
			for r := 0; r < rounds; r++ {
				lockIter(tc)
				s.IterationStart()
				iterMu.Unlock()
				// Private churn: allocations that force eviction, written
				// and immediately re-read.
				priv := make([]PageRef, 0, 6)
				for i := 0; i < 6; i++ {
					ref, err := s.Current().AllocRecord(100, 20000)
					if err != nil {
						failures.Add(1)
						continue
					}
					rt.SetLong(ref, 0, int64(w*1_000_000+r*1_000+i))
					priv = append(priv, ref)
					poll(s)
				}
				for i, ref := range priv {
					if got := rt.GetLong(ref, 0); got != int64(w*1_000_000+r*1_000+i) {
						t.Errorf("worker %d round %d: private record %d = %d", w, r, i, got)
					}
					poll(s)
				}
				// Shared records must read the same values from any tier.
				for i, ref := range shared {
					if got := rt.GetLong(ref, 0); got != int64(i)*7919 {
						t.Errorf("worker %d round %d: shared record %d long = %d", w, r, i, got)
					}
					if got := rt.GetDouble(ref, 8); got != float64(i)+0.25 {
						t.Errorf("worker %d round %d: shared record %d double = %v", w, r, i, got)
					}
					poll(s)
				}
				lockIter(tc)
				s.IterationEnd()
				iterMu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	tc.EndExternal()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d allocation failures without fault injection", n)
	}
	checkTierAccounting(t, rt)
	if rt.Stats().PagesSpilled == 0 {
		t.Fatal("torture never spilled")
	}
	for i, ref := range shared {
		if got := rt.GetLong(ref, 0); got != int64(i)*7919 {
			t.Fatalf("shared record %d = %d after torture", i, got)
		}
	}
	root.Close()
	tc.BeginExternal()
	hp.UnregisterThread(tc)
}
