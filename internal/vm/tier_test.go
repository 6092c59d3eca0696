package vm

import (
	"sync"
	"testing"

	"repro/internal/offheap"
)

// TestIterationEndRacesTierEviction: framework code ending an iteration
// on one thread while a worker's allocations keep the disk tier evicting.
// IterationEnd is called in external state and releases pages the worker's
// evictions may be spilling; it must enter mutator state so the release is
// serialized with the stop-the-world evictor (the -race run checks it).
func TestIterationEndRacesTierEviction(t *testing.T) {
	src := `
class Main { static void main() { } }
class D {
    long v; int[] pad;
    D(long v) { this.v = v; this.pad = new int[2000]; }
}
class Work {
    static long churn(int n) {
        long acc = 0L;
        for (int r = 0; r < n; r = r + 1) {
            Sys.iterStart();
            D[] keep = new D[8];
            for (int i = 0; i < 8; i = i + 1) { keep[i] = new D(r * 100L + i); }
            for (int i = 0; i < 8; i = i + 1) { acc = acc + keep[i].v + keep[i].pad.length; }
            Sys.iterEnd();
        }
        return acc;
    }
}
`
	p2 := transform(t, compile(t, src), "D", "Work")
	m, err := New(p2, Config{HeapSize: 8 << 20,
		Tiering: &offheap.TierConfig{Dir: t.TempDir(), HighWater: 2, LowWater: 1}})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 150
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // worker: evictions from interpreted allocation
		defer wg.Done()
		w, err := m.NewThread(nil)
		if err != nil {
			t.Error(err)
			return
		}
		defer w.Close()
		got, err := w.Call("WorkFacade.churn", rounds)
		if err != nil {
			t.Error(err)
			return
		}
		want := int64(0)
		for r := int64(0); r < rounds; r++ {
			for i := int64(0); i < 8; i++ {
				want += r*100 + i + 2000
			}
		}
		if int64(got) != want {
			t.Errorf("churn = %d, want %d", int64(got), want)
		}
	}()
	go func() { // framework: boundary allocation and iteration release
		defer wg.Done()
		f, err := m.NewThread(nil)
		if err != nil {
			t.Error(err)
			return
		}
		defer f.Close()
		for r := 0; r < rounds; r++ {
			f.IterationStart()
			for i := 0; i < 4; i++ {
				k := int64(r*10 + i)
				o, err := f.NewObj("D", I(k))
				if err != nil {
					t.Error(err)
					return
				}
				if v, err := f.GetField(o, "D", "v"); err != nil || int64(v) != k {
					t.Errorf("round %d: D.v = %d (%v), want %d", r, int64(v), err, k)
				}
				f.FreeObj(o)
			}
			f.IterationEnd()
		}
	}()
	wg.Wait()
	st := m.RT.Stats()
	if st.PagesSpilled == 0 {
		t.Fatalf("no page spilled; the race under test never happened: %+v", st)
	}
	if st.PagesResident+st.PagesDisk != st.PagesLive {
		t.Fatalf("resident(%d) + disk(%d) != live(%d)", st.PagesResident, st.PagesDisk, st.PagesLive)
	}
}
