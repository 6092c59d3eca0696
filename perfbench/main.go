// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time, checks every job's output against a reference that
// does not come from the code under test, and prints each metric by name
// with its unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run reports the per-layer ones. See README.md for the
// workloads, the metrics and the layer each one belongs to.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runner drives one workload after its set-up.
type runner interface {
	// run drives jobs until the deadline, numbering them from firstID.
	run(tr *tracer, until time.Time, firstID int) []sample
	// cpu is the user+sys CPU time the process running the system has
	// used so far.
	cpu() (time.Duration, error)
	// layers sets the traced run's per-layer metrics on m. It may run
	// extra probe jobs, numbered from *next.
	layers(tr *tracer, traced []sample, m map[string]float64, next *int) error
	// close releases the workload's resources and stops its processes.
	close() error
}

// env is what set-up gets from the command line.
type env struct {
	seed  int64
	tmp   string // owned by this run, removed at exit
	repro string // the repro binary, for the daemon
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// workload is one set of inputs the benchmark runs. BENCHMARK.json and
// README.md say why each was chosen.
type workload struct {
	name  string
	setup func(e *env, tr *tracer, rep int) (runner, error)
}

var workloads = []workload{
	{"graphchi-P", func(e *env, tr *tracer, _ int) (runner, error) { return setupGraphChi(e, tr, false, false) }},
	{"graphchi-P2-tiered", func(e *env, tr *tracer, _ int) (runner, error) { return setupGraphChi(e, tr, true, true) }},
	{"hyracks-wc-P2", func(e *env, tr *tracer, _ int) (runner, error) { return setupHyracks(e, tr) }},
	{"daemon-mix", setupDaemon},
}

// endToEnd names the metrics the timed run's result line carries.
// failed_frac is printed above it: the line's attempted and failed fields
// carry the same count.
var endToEnd = []string{"job_p50_ms", "job_tail_ms", "jobs_per_s", "cpu_ms_per_job", "peak_mem_mb", "setup_s"}

const (
	setupReps   = 3 // set-ups per run; setup_s is their median
	tracePhases = 8 // alternating untraced/traced phases of a traced run
	// heldOutSeed is kept out of tuning: a later speed claim must also
	// hold on it.
	heldOutSeed = 90001
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, fmt.Sprintf("input seed (%d is held out for claims)", heldOutSeed))
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	repro := flag.String("repro", "", "repro binary (the daemon workload starts `repro serve`)")
	outDir := flag.String("out", ".bench_build", "directory for traces and the run's temp directory")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		return fmt.Errorf("unknown workload %q", *name)
	case *seconds < 1:
		return fmt.Errorf("-seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace must be 0 or 1")
	case *seed < 0:
		return fmt.Errorf("-seed must not be negative")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(*outDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	tmp, err = filepath.Abs(tmp)
	if err != nil {
		return err
	}
	e := &env{seed: *seed, tmp: tmp, repro: *repro}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d (held-out seed %d)\n", w.name, *seed, *seconds, *trace, heldOutSeed)

	// A traced run records set-up's spans and the traced phases' spans on
	// one tracer, so span IDs and times share one base.
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	r, setups, err := setUp(w, e, tr)
	if err != nil {
		return err
	}
	res, err := measureAll(r, e, w, tr, setups, time.Duration(*seconds)*time.Second, *outDir)
	if cerr := r.close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return res()
}

// setUp sets the workload up setupReps times, keeping the last, and
// returns the set-up times.
func setUp(w *workload, e *env, tr *tracer) (runner, []time.Duration, error) {
	var times []time.Duration
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		r, err := w.setup(e, tr, i)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start))
		if i == setupReps-1 {
			return r, times, nil
		}
		if err := r.close(); err != nil {
			return nil, nil, err
		}
	}
	panic("unreachable")
}

// phase is one measured stretch of jobs.
type phase struct {
	samples []sample
	wall    time.Duration
	cpu     time.Duration
}

func measure(r runner, tr *tracer, d time.Duration, next *int) (phase, error) {
	cpu0, err := r.cpu()
	if err != nil {
		return phase{}, err
	}
	start := time.Now()
	samples := r.run(tr, start.Add(d), *next)
	wall := time.Since(start)
	cpu1, err := r.cpu()
	if err != nil {
		return phase{}, err
	}
	*next += len(samples) + 2
	return phase{samples, wall, cpu1 - cpu0}, nil
}

// measureAll runs the timed measurement, or the traced one when tr is not
// nil, and returns the function that prints the result line.
func measureAll(r runner, e *env, w *workload, tr *tracer, setups []time.Duration,
	d time.Duration, outDir string) (func() error, error) {
	next := 1
	if tr == nil {
		p, err := measure(r, nil, d, &next)
		if err != nil {
			return nil, err
		}
		m, t, err := endToEndMetrics(p, setups)
		if err != nil {
			return nil, err
		}
		m.print(os.Stdout, "e2e ")
		return func() error { return m.emit(os.Stdout, endToEnd, t.attempted, t.failed) }, nil
	}

	// Traced: untraced and traced phases alternate, so drift in machine
	// speed hits both alike; their medians give the tracing overhead.
	var plain, tp phase
	for i := 0; i < tracePhases; i++ {
		on := i%2 == 1
		var t *tracer
		if on {
			t = tr
		}
		p, err := measure(r, t, d/tracePhases, &next)
		if err != nil {
			return nil, err
		}
		acc := &plain
		if on {
			acc = &tp
		}
		acc.samples = append(acc.samples, p.samples...)
		acc.wall += p.wall
		acc.cpu += p.cpu
	}
	em, _, err := endToEndMetrics(tp, setups)
	if err != nil {
		return nil, err
	}
	em.print(os.Stdout, "e2e-traced ")
	var t tally
	for _, s := range append(append([]sample(nil), plain.samples...), tp.samples...) {
		t.record(s.ok)
	}
	lm := make(map[string]float64)
	if err := r.layers(tr, tp.samples, lm, &next); err != nil {
		return nil, err
	}
	if pm := medianDur(latencies(plain.samples)); pm > 0 {
		lm["bench.trace_overhead_frac"] = float64(medianDur(latencies(tp.samples)))/float64(pm) - 1
	}
	_, pct, _ := tail(latencies(tp.samples))
	lm["bench.tail_pct"] = pct
	lm["bench.samples"] = float64(len(tp.samples))

	m := newMetricSet()
	names := make([]string, len(layerMetrics))
	for i, x := range layerMetrics {
		names[i] = x.name
		if err := m.set(x.name, x.unit, lm[x.name]); err != nil {
			return nil, err
		}
	}
	m.print(os.Stdout, "layer ")
	exactness(os.Stdout, tp.samples)

	spans := tr.closed()
	self := selfByName(spans)
	var spanNames []string
	for n := range self {
		spanNames = append(spanNames, n)
	}
	sort.Slice(spanNames, func(i, j int) bool { return self[spanNames[i]] > self[spanNames[j]] })
	for _, n := range spanNames {
		fmt.Printf("self %-26s %12.3f ms\n", n, ms(self[n]))
	}
	dir := filepath.Join(outDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, e.seed))
	if err := writeTrace(path, spans); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(spans), path)
	return func() error { return m.emit(os.Stdout, names, t.attempted, t.failed) }, nil
}

// failedLatency stands for a failed job's latency: longer than any job,
// and small enough that medians of it do not overflow.
const failedLatency = time.Duration(math.MaxInt64 / 4)

// endToEndMetrics computes the user-visible metrics of one phase. A failed
// job's latency counts as failedLatency, so failures push the percentiles
// up.
func endToEndMetrics(p phase, setups []time.Duration) (*metricSet, tally, error) {
	var t tally
	lat := make([]time.Duration, len(p.samples))
	peaks := make(map[string][]float64) // by input key
	for i, s := range p.samples {
		t.record(s.ok)
		lat[i] = s.latency
		if !s.ok {
			lat[i] = failedLatency
			continue
		}
		peaks[s.key] = append(peaks[s.key], float64(s.peakMem)/mib)
	}
	// Peak memory depends on the input, so it is the median over inputs of
	// each input's median: stable however a mix of inputs falls.
	var peakPerKey []float64
	for _, ps := range peaks {
		peakPerKey = append(peakPerKey, medianF(ps))
	}
	ok := t.attempted - t.failed
	if ok == 0 {
		return nil, t, fmt.Errorf("no job completed with correct output (%d attempted)", t.attempted)
	}
	tl, pct, found := tail(lat)
	if !found {
		fmt.Printf("warning: %d jobs leave no percentile with %d beyond it; the tail is the maximum\n", len(lat), tailBeyond)
	}
	fmt.Printf("jobs: %d attempted, %d failed (failed_frac %.4f); tail is p%.2f of %d samples; wall %.3f s\n",
		t.attempted, t.failed, t.failedFrac(), pct, len(lat), p.wall.Seconds())
	fmt.Printf("setup: %d runs:", len(setups))
	for _, s := range setups {
		fmt.Printf(" %.3f", s.Seconds())
	}
	fmt.Println(" s")
	m := newMetricSet()
	for _, x := range []struct {
		name, unit string
		v          float64
	}{
		{"job_p50_ms", "ms", ms(medianDur(lat))},
		{"job_tail_ms", "ms", ms(tl)},
		{"jobs_per_s", "1/s", float64(ok) / p.wall.Seconds()},
		{"cpu_ms_per_job", "ms", ms(p.cpu) / float64(ok)},
		{"peak_mem_mb", "MB", medianF(peakPerKey)},
		{"setup_s", "s", medianDur(setups).Seconds()},
		{"failed_frac", "frac", t.failedFrac()},
		{"job_tail_pct", "%", pct},
		{"job_samples", "count", float64(len(lat))},
	} {
		if err := m.set(x.name, x.unit, x.v); err != nil {
			return nil, t, err
		}
	}
	return m, t, nil
}
