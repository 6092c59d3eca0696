// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§4), plus ablations for the design choices DESIGN.md calls
// out. Absolute numbers reflect the interpreter substrate; the comparisons
// between P (suffix "/P") and the FACADE-transformed P' (suffix "/P2")
// reproduce the paper's shapes. Custom metrics reported per benchmark:
//
//	gc-ms/op        stop-the-world collection time
//	peakMB          peak memory (heap + native)
//	edges/s         GraphChi throughput (Figure 4a)
//	dataObjs        heap objects allocated for data classes
//	instr/s         transform compilation speed
//
// Run everything: go test -bench=. -benchmem .
package repro

import (
	"fmt"
	"testing"

	"repro/facade"
	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/gps"
	"repro/internal/graphchi"
	"repro/internal/heap"
	"repro/internal/hyracks"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/offheap"
	"repro/internal/vm"
)

// benchPair caches compiled (P, P') pairs across benchmarks.
var benchProgs = map[string][2]*ir.Program{}

func programs(b *testing.B, name string, build func() (*ir.Program, *ir.Program, error)) (*ir.Program, *ir.Program) {
	b.Helper()
	if pair, ok := benchProgs[name]; ok {
		return pair[0], pair[1]
	}
	p, p2, err := build()
	if err != nil {
		b.Fatal(err)
	}
	benchProgs[name] = [2]*ir.Program{p, p2}
	return p, p2
}

// ---------------------------------------------------------------------------
// Table 2: GraphChi PR/CC across heap budgets.

func BenchmarkTable2GraphChi(b *testing.B) {
	p, p2 := programs(b, "graphchi", graphchi.BuildPrograms)
	g := datagen.PowerLawGraph(8000, 120000, 42)
	for _, app := range []graphchi.App{graphchi.PageRank, graphchi.ConnectedComponents} {
		sg := graphchi.Shard(g, 20, app == graphchi.ConnectedComponents)
		for _, hp := range []struct {
			label string
			bytes int64
		}{{"8g", 24 << 20}, {"6g", 18 << 20}, {"4g", 12 << 20}} {
			for _, pr := range []struct {
				label string
				prog  *ir.Program
			}{{"P", p}, {"P2", p2}} {
				b.Run(fmt.Sprintf("%s-%s/%s", app, hp.label, pr.label), func(b *testing.B) {
					cfg := graphchi.Config{App: app, Workers: 4, Iterations: 2, MemoryBudget: hp.bytes / 2}
					var last *graphchi.Metrics
					for i := 0; i < b.N; i++ {
						m, err := vm.New(pr.prog, vm.Config{HeapSize: int(hp.bytes)})
						if err != nil {
							b.Fatal(err)
						}
						met, _, err := graphchi.Run(m, sg, cfg)
						if err != nil {
							b.Fatal(err)
						}
						last = met
					}
					reportGraphchi(b, last)
				})
			}
		}
	}
}

func reportGraphchi(b *testing.B, m *graphchi.Metrics) {
	b.ReportMetric(float64(m.GT.Milliseconds()), "gc-ms/op")
	b.ReportMetric(float64(m.PM)/(1<<20), "peakMB")
	b.ReportMetric(float64(m.DataObjects), "dataObjs")
	b.ReportMetric(m.Throughput(), "edges/s")
	// Pause-time distribution of the last run, from the observability
	// snapshot (latency shape matters as much as total GT for the paper's
	// argument; a P' run with zero collections reports zeros).
	pauses := m.Obs.Histograms[obs.HistGCPause]
	b.ReportMetric(float64(pauses.Quantile(0.5))/1e6, "p50pause-ms")
	b.ReportMetric(float64(pauses.Quantile(0.95))/1e6, "p95pause-ms")
	b.ReportMetric(float64(pauses.Max)/1e6, "maxpause-ms")
}

// ---------------------------------------------------------------------------
// Figure 4(a): throughput vs graph size.

func BenchmarkFigure4aThroughput(b *testing.B) {
	p, p2 := programs(b, "graphchi", graphchi.BuildPrograms)
	for s := 1; s <= 4; s++ {
		g := datagen.PowerLawGraph(2000*s, 30000*s, 42)
		for _, app := range []graphchi.App{graphchi.PageRank, graphchi.ConnectedComponents} {
			sg := graphchi.Shard(g, 20, app == graphchi.ConnectedComponents)
			for _, pr := range []struct {
				label string
				prog  *ir.Program
			}{{"P", p}, {"P2", p2}} {
				b.Run(fmt.Sprintf("%s/edges-%d/%s", app, 30000*s, pr.label), func(b *testing.B) {
					var last *graphchi.Metrics
					for i := 0; i < b.N; i++ {
						m, err := vm.New(pr.prog, vm.Config{HeapSize: 24 << 20})
						if err != nil {
							b.Fatal(err)
						}
						met, _, err := graphchi.Run(m, sg, graphchi.Config{
							App: app, Workers: 4, Iterations: 2, MemoryBudget: 12 << 20,
						})
						if err != nil {
							b.Fatal(err)
						}
						last = met
					}
					b.ReportMetric(last.Throughput(), "edges/s")
				})
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Table 3 and Figures 4(b)/4(c): Hyracks ES/WC across dataset sizes.

func hyracksDataset(app string, size int) ([][]byte, hyracks.Job) {
	const nodes = 2
	unit := int64(48 << 10)
	total := int(int64(size) * unit)
	if app == "WC" {
		corpus := datagen.CorpusSkewed(total, 200, uint64(size))
		return datagen.Partition(corpus, nodes), hyracks.WordCountJob{}
	}
	const keyLen, recLen = 8, 32
	nRecs := total / recLen
	recs := datagen.SortRecords(nRecs, keyLen, recLen-keyLen, uint64(size))
	var data []byte
	for _, r := range recs {
		data = append(data, r...)
	}
	per := (nRecs / nodes) * recLen
	parts := make([][]byte, nodes)
	for i := 0; i < nodes; i++ {
		lo := i * per
		hi := lo + per
		if i == nodes-1 {
			hi = len(data)
		}
		parts[i] = data[lo:hi]
	}
	return parts, hyracks.ExternalSortJob{KeyLen: keyLen, RecLen: recLen, RunRecords: 2048}
}

func benchHyracks(b *testing.B, app string) {
	p, p2 := programs(b, "hyracks", hyracks.BuildPrograms)
	heap := 4 << 20
	for _, size := range []int{3, 5, 10, 14, 19} {
		parts, job := hyracksDataset(app, size)
		for _, pr := range []struct {
			label string
			prog  *ir.Program
			cap   int64
		}{{"P", p, 0}, {"P2", p2, int64(heap) * 8}} {
			b.Run(fmt.Sprintf("%dGB/%s", size, pr.label), func(b *testing.B) {
				var last *hyracks.Result
				for i := 0; i < b.N; i++ {
					res, err := hyracks.RunJob(pr.prog, job, parts,
						cluster.Config{NumNodes: 2, HeapPerNode: heap}, pr.cap, dfs.New())
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(float64(last.GT.Milliseconds()), "gc-ms/op")
				b.ReportMetric(float64(last.PM)/(1<<20), "peakMB")
				if last.OME {
					b.ReportMetric(1, "OME")
				} else {
					b.ReportMetric(0, "OME")
				}
			})
		}
	}
}

func BenchmarkTable3HyracksES(b *testing.B) { benchHyracks(b, "ES") }
func BenchmarkTable3HyracksWC(b *testing.B) { benchHyracks(b, "WC") }

// Figures 4(b)/(c) report the same runs' peak memory; the peakMB metric of
// the Table 3 benchmarks carries the series. These wrappers exist so every
// figure has a named bench target.
func BenchmarkFigure4bMemoryES(b *testing.B) { benchHyracks(b, "ES") }
func BenchmarkFigure4cMemoryWC(b *testing.B) { benchHyracks(b, "WC") }

// ---------------------------------------------------------------------------
// §4.3: GPS.

func BenchmarkGPSSection43(b *testing.B) {
	p, p2 := programs(b, "gps", gps.BuildPrograms)
	g := datagen.PowerLawGraph(6000, 90000, 100)
	for _, app := range []gps.App{gps.PageRank, gps.KMeans, gps.RandomWalk} {
		for _, pr := range []struct {
			label string
			prog  *ir.Program
		}{{"P", p}, {"P2", p2}} {
			b.Run(fmt.Sprintf("%s/%s", app, pr.label), func(b *testing.B) {
				var last *gps.Result
				for i := 0; i < b.N; i++ {
					res, err := gps.Run(pr.prog, g, gps.Config{
						App: app, Nodes: 2, HeapPerNode: 16 << 20, Supersteps: 4, Seed: 7,
					})
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(float64(last.GT.Milliseconds()), "gc-ms/op")
				b.ReportMetric(float64(last.PM)/(1<<20), "peakMB")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// §4.1 object census.

func BenchmarkObjectBound(b *testing.B) {
	p, p2 := programs(b, "graphchi", graphchi.BuildPrograms)
	g := datagen.PowerLawGraph(4000, 60000, 11)
	sg := graphchi.Shard(g, 20, false)
	for _, pr := range []struct {
		label string
		prog  *ir.Program
	}{{"P", p}, {"P2", p2}} {
		b.Run(pr.label, func(b *testing.B) {
			var last *graphchi.Metrics
			for i := 0; i < b.N; i++ {
				m, err := vm.New(pr.prog, vm.Config{HeapSize: 32 << 20})
				if err != nil {
					b.Fatal(err)
				}
				met, _, err := graphchi.Run(m, sg, graphchi.Config{
					App: graphchi.PageRank, Workers: 4, Iterations: 2, MemoryBudget: 8 << 20,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = met
			}
			b.ReportMetric(float64(last.DataObjects), "dataObjs")
			b.ReportMetric(float64(last.Pages), "pages")
		})
	}
}

// ---------------------------------------------------------------------------
// §4.1-4.3 compilation speed.

func BenchmarkTransformSpeed(b *testing.B) {
	targets := []struct {
		name    string
		src     string
		classes []string
	}{
		{"GraphChi", graphchi.Source, graphchi.DataClasses},
		{"Hyracks", hyracks.Source, hyracks.DataClasses},
		{"GPS", gps.Source, gps.DataClasses},
	}
	for _, tg := range targets {
		b.Run(tg.name, func(b *testing.B) {
			p, err := facade.Compile(map[string]string{"b.fj": tg.src})
			if err != nil {
				b.Fatal(err)
			}
			n := p.InstrsInClasses(tg.classes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Transform(p, core.Options{DataClasses: tg.classes}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			perOp := b.Elapsed().Seconds() / float64(b.N)
			if perOp > 0 {
				b.ReportMetric(float64(n)/perOp, "instr/s")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations (§2.4, §3.6 design choices).

// BenchmarkAblationPageRecycling measures iteration-based reclamation with
// and without the free-page pool.
func BenchmarkAblationPageRecycling(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"recycle", false}, {"no-recycle", true}} {
		b.Run(mode.name, func(b *testing.B) {
			rt := offheap.NewRuntime()
			rt.DisableRecycle = mode.disable
			ic := 0
			s := rt.NewIterScope(nil, &ic, 0, nil)
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.IterationStart()
				for j := 0; j < 1000; j++ {
					s.Current().AllocRecord(1, 48)
				}
				s.IterationEnd()
			}
			b.StopTimer()
			b.ReportMetric(float64(rt.Stats().PagesCreated), "pagesCreated")
		})
	}
}

// BenchmarkAblationHeaderFootprint compares the bytes a dataset occupies as
// managed objects (12/16-byte headers) vs page records (4/8-byte headers),
// the §2.4 space argument.
func BenchmarkAblationHeaderFootprint(b *testing.B) {
	src := `
class Pair { int a; int b; }
class Main {
    static void main() {
        Pair[] ps = new Pair[10000];
        for (int i = 0; i < ps.length; i = i + 1) {
            Pair p = new Pair();
            p.a = i;
            p.b = i + 1;
            ps[i] = p;
        }
        Sys.println(ps.length);
    }
}
`
	prog, err := facade.Compile(map[string]string{"p.fj": src})
	if err != nil {
		b.Fatal(err)
	}
	p2, err := facade.Transform(prog, facade.TransformOptions{DataClasses: []string{"Pair", "Main"}})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("heap-objects", func(b *testing.B) {
		var bytesUsed int64
		for i := 0; i < b.N; i++ {
			res, err := facade.Run(prog, facade.WithHeapSize(16<<20))
			if err != nil {
				b.Fatal(err)
			}
			bytesUsed = res.VM.Heap.Stats().AllocBytes
			res.Close()
		}
		b.ReportMetric(float64(bytesUsed)/10000, "B/record")
	})
	b.Run("page-records", func(b *testing.B) {
		var bytesUsed int64
		for i := 0; i < b.N; i++ {
			res, err := facade.Run(p2, facade.WithHeapSize(16<<20))
			if err != nil {
				b.Fatal(err)
			}
			bytesUsed = res.VM.RT.Stats().BytesInUse
			res.Close()
		}
		b.ReportMetric(float64(bytesUsed)/10000, "B/record")
	})
}

// BenchmarkAblationAllocationPath compares raw allocation throughput:
// nursery TLAB allocation + GC vs page bump allocation + iteration free.
func BenchmarkAblationAllocationPath(b *testing.B) {
	src := `
class Cell { long v; }
class Main {
    static void main() {
        for (int i = 0; i < 50000; i = i + 1) {
            Cell c = new Cell();
            c.v = i;
        }
        Sys.println(0);
    }
}
`
	prog, err := facade.Compile(map[string]string{"c.fj": src})
	if err != nil {
		b.Fatal(err)
	}
	p2, err := facade.Transform(prog, facade.TransformOptions{DataClasses: []string{"Cell", "Main"}})
	if err != nil {
		b.Fatal(err)
	}
	for _, pr := range []struct {
		name string
		p    *ir.Program
	}{{"heap", prog}, {"pages", p2}} {
		b.Run(pr.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := facade.Run(pr.p, facade.WithHeapSize(8<<20))
				if err != nil {
					b.Fatal(err)
				}
				res.Close()
			}
		})
	}
}

// BenchmarkAblationParallelMark measures the full collector over a large
// live object graph with 1 vs 4 mark workers (the paper's runs use
// HotSpot's parallel collector).
func BenchmarkAblationParallelMark(b *testing.B) {
	src := "class Object { }\nclass Node { int v; Node next; }\n"
	files, err := stdlibFreeParse(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			hp := heap.New(heap.Config{HeapSize: 96 << 20, GCWorkers: workers}, files)
			tc := hp.RegisterThread()
			tc.EndExternal()
			defer func() {
				tc.BeginExternal()
				hp.UnregisterThread(tc)
			}()
			node := files.Class("Node")
			next := node.FindField("next")
			var root heap.Addr
			hp.AddRoots(heap.RootFunc(func(visit func(heap.Addr) heap.Addr) {
				root = visit(root)
			}))
			// Wide graph: one root array fanning out to 150k short chains
			// (marking a single linked list cannot parallelize).
			const fanout = 150000
			arr, err := hp.AllocArray(tc, lang.ClassType("Node"), fanout, 0)
			if err != nil {
				b.Fatal(err)
			}
			root = arr
			for i := 0; i < fanout; i++ {
				a, err := hp.AllocObject(tc, node, 0)
				if err != nil {
					b.Fatal(err)
				}
				c, err := hp.AllocObject(tc, node, 0)
				if err != nil {
					b.Fatal(err)
				}
				hp.SetRef(a, next.Offset, c)
				hp.SetRef(root, i*8, a)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := hp.ForceGC(tc, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// stdlibFreeParse builds a hierarchy without the FJ stdlib (heap-level
// benches need only the class layout).
func stdlibFreeParse(src string) (*lang.Hierarchy, error) {
	f, err := lang.Parse("bench.fj", src)
	if err != nil {
		return nil, err
	}
	return lang.BuildHierarchy(f)
}

// BenchmarkAblationDevirt measures §3.6's static call resolution on the
// GPS PageRank data path: resolve-per-call vs pool access by static type.
func BenchmarkAblationDevirt(b *testing.B) {
	p, err := facade.Compile(map[string]string{"gps.fj": gps.Source})
	if err != nil {
		b.Fatal(err)
	}
	g := datagen.PowerLawGraph(4000, 60000, 100)
	for _, mode := range []struct {
		name   string
		devirt bool
	}{{"resolve", false}, {"devirt", true}} {
		p2, err := core.Transform(p, core.Options{DataClasses: gps.DataClasses, Devirtualize: mode.devirt})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := gps.Run(p2, g, gps.Config{
					App: gps.PageRank, Nodes: 2, HeapPerNode: 16 << 20, Supersteps: 4, Seed: 7,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDCE measures liveness-driven dead-code elimination on
// the GraphChi PageRank data path (Table 2's workload): interpreted
// instruction count with and without DCE, same output either way.
func BenchmarkAblationDCE(b *testing.B) {
	p, err := facade.Compile(map[string]string{"graphchi.fj": graphchi.Source})
	if err != nil {
		b.Fatal(err)
	}
	g := datagen.PowerLawGraph(2000, 30000, 42)
	sg := graphchi.Shard(g, 10, false)
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"nodce", true}, {"dce", false}} {
		p2, err := core.Transform(p, core.Options{DataClasses: graphchi.DataClasses, DisableDCE: mode.disable})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode.name, func(b *testing.B) {
			var last *graphchi.Metrics
			for i := 0; i < b.N; i++ {
				m, err := vm.New(p2, vm.Config{HeapSize: 16 << 20})
				if err != nil {
					b.Fatal(err)
				}
				met, _, err := graphchi.Run(m, sg, graphchi.Config{
					App: graphchi.PageRank, Workers: 2, Iterations: 2, MemoryBudget: 8 << 20,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = met
			}
			b.ReportMetric(float64(last.Obs.Counters[obs.CtrInstructions]), "interp-instrs")
			b.ReportMetric(float64(p2.DCERemoved), "dce-removed")
		})
	}
}

// BenchmarkAblationLifetimes measures the lifetime pass's placement
// machinery on the Table 2 workloads (GraphChi PageRank and Connected
// Components): with lifetimes enforced, long-lived sites pretenure
// straight into the old generation and epoch-local sites land in
// bulk-reset regions, so the minor collector evacuates fewer young
// objects. "promoted" counts young-gen evacuation copies; output is
// identical in every mode (the differential battery pins that).
func BenchmarkAblationLifetimes(b *testing.B) {
	p, err := facade.Compile(map[string]string{"graphchi.fj": graphchi.Source})
	if err != nil {
		b.Fatal(err)
	}
	lifetimes := analysis.Lifetimes(p)
	g := datagen.PowerLawGraph(2000, 30000, 42)
	for _, app := range []graphchi.App{graphchi.PageRank, graphchi.ConnectedComponents} {
		sg := graphchi.Shard(g, 10, app == graphchi.ConnectedComponents)
		for _, mode := range []struct {
			name string
			mode heap.LifetimeMode
		}{{"off", heap.LifetimeOff}, {"enforce", heap.LifetimeEnforce}} {
			b.Run(fmt.Sprintf("%s/%s", app, mode.name), func(b *testing.B) {
				var promoted, pretenured, region float64
				for i := 0; i < b.N; i++ {
					cfg := vm.Config{HeapSize: 10 << 20}
					if mode.mode != heap.LifetimeOff {
						cfg.Lifetimes = lifetimes
						cfg.LifetimeMode = mode.mode
					}
					m, err := vm.New(p, cfg)
					if err != nil {
						b.Fatal(err)
					}
					if _, _, err := graphchi.Run(m, sg, graphchi.Config{
						App: app, Workers: 2, Iterations: 2, MemoryBudget: 8 << 20,
					}); err != nil {
						b.Fatal(err)
					}
					promoted = float64(m.Heap.Stats().Promoted)
					snap := m.Obs().Snapshot()
					pretenured = float64(snap.Counters[obs.CtrLifetimePretenured])
					region = float64(snap.Counters[obs.CtrLifetimeRegionAllocs])
				}
				b.ReportMetric(promoted, "promoted")
				b.ReportMetric(pretenured, "pretenured")
				b.ReportMetric(region, "region-allocs")
			})
		}
	}
}

// BenchmarkInterpreter is a plain VM baseline (recursive fib), useful for
// normalizing the framework numbers against interpreter speed.
func BenchmarkInterpreter(b *testing.B) {
	src := `
class Main {
    static int fib(int n) {
        if (n < 2) { return n; }
        return Main.fib(n - 1) + Main.fib(n - 2);
    }
    static void main() { Sys.println(Main.fib(22)); }
}
class D { int x; }
`
	prog, err := facade.Compile(map[string]string{"f.fj": src})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := facade.Run(prog, facade.WithHeapSize(8<<20))
		if err != nil {
			b.Fatal(err)
		}
		res.Close()
	}
}
