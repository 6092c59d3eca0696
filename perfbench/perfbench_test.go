package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/graphchi"
)

func msDurations(vals ...int) []time.Duration {
	out := make([]time.Duration, len(vals))
	for i, v := range vals {
		out[i] = time.Duration(v) * time.Millisecond
	}
	return out
}

func TestTailHasTenSamplesBeyondIt(t *testing.T) {
	var thirty []int
	for i := 30; i >= 1; i-- { // unsorted on purpose
		thirty = append(thirty, i)
	}
	for _, tc := range []struct {
		name    string
		samples []time.Duration
		want    time.Duration
		pct     float64
		ok      bool
	}{
		{"30 samples", msDurations(thirty...), 20 * time.Millisecond, 100 * 20.0 / 30, true},
		{"11 samples", msDurations(5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11), 1 * time.Millisecond, 100 * 1.0 / 11, true},
		{"10 samples fall back to the maximum", msDurations(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 10 * time.Millisecond, 100, false},
	} {
		got, pct, ok := tail(tc.samples)
		if got != tc.want || pct != tc.pct || ok != tc.ok {
			t.Errorf("%s: tail = %v p%.4f ok=%v, want %v p%.4f ok=%v", tc.name, got, pct, ok, tc.want, tc.pct, tc.ok)
		}
		if !tc.ok {
			continue
		}
		beyond := 0
		for _, s := range tc.samples {
			if s > got {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("%s: %d samples beyond the tail, want %d", tc.name, beyond, tailBeyond)
		}
	}

	// Past 1100 samples the tail stops at p99, which has more than ten
	// samples beyond it.
	var many []int
	for i := 1; i <= 5000; i++ {
		many = append(many, i)
	}
	got, pct, ok := tail(msDurations(many...))
	if got != 4950*time.Millisecond || pct != 99 || !ok {
		t.Errorf("5000 samples: tail = %v p%v ok=%v, want 4.95s p99 ok=true", got, pct, ok)
	}
	got, pct, _ = tail(msDurations(many[:1100]...))
	if got != 1089*time.Millisecond || pct != 99 {
		t.Errorf("1100 samples: tail = %v p%v, want 1.089s p99", got, pct)
	}
}

func TestEndToEndReportsTailPercentileAndSampleCount(t *testing.T) {
	var samples []sample
	for i := 1; i <= 40; i++ {
		samples = append(samples, sample{latency: time.Duration(i) * time.Millisecond, ok: true, peakMem: mib})
	}
	m, tl, err := endToEndMetrics(phase{samples: samples, wall: time.Second, cpu: time.Second}, msDurations(3, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"job_tail_ms": 30, "job_tail_pct": 75, "job_samples": 40,
		"jobs_per_s": 40, "cpu_ms_per_job": 25, "peak_mem_mb": 1, "setup_s": 0.002, "failed_frac": 0,
	} {
		if got := m.vals[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if tl.attempted != 40 || tl.failed != 0 {
		t.Errorf("tally = %+v", tl)
	}
}

func TestMetricNames(t *testing.T) {
	m := newMetricSet()
	for _, ok := range []string{"job_p50_ms", "heap.gc_share", "offheap.pages_live-hw", "9lives", strings.Repeat("a", 64)} {
		if err := m.set(ok, "ms", 1); err != nil {
			t.Errorf("set(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{"", "has space", "slash/name", "colon:name", "ünïcode", ".leading", "_leading", strings.Repeat("a", 65)} {
		if err := m.set(bad, "ms", 1); err == nil {
			t.Errorf("set(%q) accepted a malformed name", bad)
		}
	}
	if err := m.set("job_p50_ms", "ms", 2); err == nil {
		t.Error("a repeated name was accepted")
	}
	if err := m.set("unit_bad", "milli seconds", 1); err == nil {
		t.Error("a malformed unit was accepted")
	}
	// Every name the benchmark reports is well formed and used once.
	all := newMetricSet()
	for _, n := range endToEnd {
		if err := all.set(n, "ms", 1); err != nil {
			t.Error(err)
		}
	}
	for _, x := range layerMetrics {
		if err := all.set(x.name, x.unit, 1); err != nil {
			t.Error(err)
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 70},   // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},  // runs past the parent
		{ID: 5, Parent: 2, Name: "a.x", Start: 20, End: 40}, // grandchild of job
	}
	self := selfTimes(spans)
	// job: children cover [10,70] and [90,100] = 70 of 100.
	for id, want := range map[int]time.Duration{1: 30, 2: 20, 3: 40, 4: 30, 5: 20} {
		if self[id] != want {
			t.Errorf("span %d self = %v, want %v", id, self[id], want)
		}
	}
	byName := selfByName(append(spans, span{ID: 6, Name: "a", Start: 200, End: 205}))
	if byName["a"] != 25 {
		t.Errorf("self by name a = %v, want 25", byName["a"])
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	if err := tr.do("x", 0, 1, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if tr.closed() != nil || tr.durations("x") != nil {
		t.Error("nil tracer kept spans")
	}
	tr = newTracer()
	end, id := tr.begin("outer", 0, 7)
	_ = tr.do("inner", id, 7, func() error { return nil })
	if got := len(tr.closed()); got != 1 {
		t.Errorf("%d closed spans before the outer one ended, want 1", got)
	}
	end()
	if sp := tr.closed(); len(sp) != 2 || sp[1].Parent != sp[0].ID || sp[1].Job != 7 {
		t.Errorf("spans = %+v", sp)
	}
}

func TestCorruptedOutputCountsAsFailed(t *testing.T) {
	// A real engine run on a small graph passes the reference check; the
	// same output with one vertex nudged by 1e-6 does not, and that job
	// counts as failed.
	sg := graphchi.Shard(datagen.PowerLawGraph(400, 5000, 3), 4, false)
	_, p2, err := graphchi.BuildPrograms()
	if err != nil {
		t.Fatal(err)
	}
	const budget = 64 << 10
	cfg := graphchi.Config{App: graphchi.PageRank, Workers: 2, Iterations: 2, MemoryBudget: budget, BytesPerEdge: bytesPerEdge}
	_, vals, err := graphchi.RunProgram(p2, 8<<20, sg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := referencePageRank(sg, sg.Intervals(budget/bytesPerEdge), 2)
	if err := checkPageRank(vals, want); err != nil {
		t.Fatalf("clean output rejected: %v", err)
	}
	bad := append([]float64(nil), vals...)
	bad[17] += 1e-6
	errBad := checkPageRank(bad, want)
	if errBad == nil {
		t.Fatal("corrupted pagerank accepted")
	}

	parts := [][]byte{[]byte("a b a\n"), []byte("b\tc a")}
	wc := referenceWordCount(parts)
	if err := checkWordCount([][]byte{[]byte("a 3\n"), []byte("b 2\nc 1\n")}, wc); err != nil {
		t.Fatalf("clean word count rejected: %v", err)
	}
	if checkWordCount([][]byte{[]byte("a 3\n"), []byte("b 2\nc 2\n")}, wc) == nil {
		t.Error("corrupted word count accepted")
	}
	if checkOutput("42\n", "42\n") != nil || checkOutput("43\n", "42\n") == nil {
		t.Error("daemon output check")
	}

	samples := []sample{
		{latency: time.Millisecond, ok: true, peakMem: mib},
		{latency: 2 * time.Millisecond, ok: errBad == nil, peakMem: mib},
	}
	m, tl, err := endToEndMetrics(phase{samples: samples, wall: time.Second, cpu: time.Second}, msDurations(1))
	if err != nil {
		t.Fatal(err)
	}
	if tl.attempted != 2 || tl.failed != 1 {
		t.Fatalf("tally = %+v, want 2 attempted, 1 failed", tl)
	}
	if m.vals["failed_frac"].Value != 0.5 || m.vals["jobs_per_s"].Value != 1 {
		t.Errorf("failed_frac = %v, jobs_per_s = %v", m.vals["failed_frac"].Value, m.vals["jobs_per_s"].Value)
	}
	var buf bytes.Buffer
	if err := m.emit(&buf, endToEnd, tl.attempted, tl.failed); err != nil {
		t.Fatal(err)
	}
	var res map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || string(res["correct"]) != "false" || string(res["failed"]) != "1" {
		t.Errorf("result line = %s", buf.String())
	}
}
