package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestStats(t *testing.T) {
	cases := []struct {
		name    string
		in      []int64
		med, md int64
	}{
		{"odd", []int64{5, 1, 3}, 3, 2},
		{"even", []int64{1, 2, 3, 4}, 2, 1},
		{"even-unsorted", []int64{40, 10, 30, 20, 60, 50}, 35, 15},
		{"single", []int64{7}, 7, 0},
		{"identical", []int64{42, 42, 42, 42}, 42, 0},
		{"outlier", []int64{10, 11, 10, 12, 500}, 11, 1},
		{"empty", nil, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			med, mad, _, _ := Stats(c.in)
			if med != c.med || mad != c.md {
				t.Fatalf("Stats(%v) = median %d, mad %d; want %d, %d", c.in, med, mad, c.med, c.md)
			}
		})
	}
	// The outlier case is the point of using median/MAD: one 50x-slow rep
	// must not move the headline numbers.
	in := []int64{10, 11, 10, 12, 500}
	med, mad, min, max := Stats(in)
	if med != 11 || mad != 1 || min != 10 || max != 500 {
		t.Fatalf("outlier handling: got median=%d mad=%d min=%d max=%d", med, mad, min, max)
	}
	if in[4] != 500 {
		t.Fatal("Stats mutated its input")
	}
}

func mkFile(rev string, medians map[string]int64) *File {
	f := &File{Schema: Schema, Rev: rev}
	for name, m := range medians {
		f.Cases = append(f.Cases, Result{Name: name, Reps: 5, Warmup: 1, MedianNS: m, RepsNS: []int64{m}})
	}
	return f
}

func TestCompareFlagsRegression(t *testing.T) {
	base := mkFile("main", map[string]int64{"a": 100, "b": 100})
	cur := mkFile("pr", map[string]int64{"a": 105, "b": 125})
	deltas, n, _ := Compare(base, cur, 0.10)
	if n != 1 {
		t.Fatalf("regressed = %d, want 1", n)
	}
	for _, d := range deltas {
		want := d.Name == "b"
		if d.Regressed != want {
			t.Fatalf("case %s regressed=%v", d.Name, d.Regressed)
		}
	}
}

func TestCompareZeroTolerance(t *testing.T) {
	// tolerance 0 flags any slowdown, however small, but never an exact
	// match — the gate must not fail on "same speed".
	base := mkFile("main", map[string]int64{"same": 1000, "hair": 1000})
	cur := mkFile("pr", map[string]int64{"same": 1000, "hair": 1001})
	deltas, n, _ := Compare(base, cur, 0)
	if n != 1 {
		t.Fatalf("regressed = %d, want 1 (%+v)", n, deltas)
	}
	for _, d := range deltas {
		if want := d.Name == "hair"; d.Regressed != want {
			t.Fatalf("case %s regressed=%v", d.Name, d.Regressed)
		}
	}
}

func TestCompareNormalizesByCalibration(t *testing.T) {
	// Current machine is uniformly 2x slower (calibration 100 -> 200):
	// a case that also doubled is NOT a regression, one that tripled is.
	base := mkFile("main", map[string]int64{CalibrationCase: 100, "same": 100, "slow": 100})
	cur := mkFile("pr", map[string]int64{CalibrationCase: 200, "same": 200, "slow": 300})
	deltas, n, _ := Compare(base, cur, 0.10)
	if n != 1 {
		t.Fatalf("regressed = %d, want 1 (got %+v)", n, deltas)
	}
	for _, d := range deltas {
		switch d.Name {
		case "same":
			if d.Regressed || d.NormRatio < 0.99 || d.NormRatio > 1.01 {
				t.Fatalf("same: %+v", d)
			}
		case "slow":
			if !d.Regressed {
				t.Fatalf("slow: %+v", d)
			}
		case CalibrationCase:
			if d.Regressed {
				t.Fatal("calibration case must never be flagged")
			}
		}
	}
}

// TestCompareReportsUnmatchedCases: a current case the baseline does not
// cover (or covers with no usable median) is reported by name, never
// silently passed; baseline-only cases are not the current run's concern.
func TestCompareReportsUnmatchedCases(t *testing.T) {
	base := mkFile("main", map[string]int64{"a": 100, "zero": 0, "gone": 100})
	cur := mkFile("pr", map[string]int64{"a": 100, "new": 999, "zero": 5})
	deltas, n, missing := Compare(base, cur, 0.10)
	sort.Strings(missing)
	if n != 0 || len(deltas) != 1 || deltas[0].Name != "a" ||
		strings.Join(missing, ",") != "new,zero" {
		t.Fatalf("deltas = %+v, regressed = %d, missing = %v", deltas, n, missing)
	}
}

// TestRunHonorsZeroWarmup: Warmup 0 means no warmup repetition, and the
// result file records it.
func TestRunHonorsZeroWarmup(t *testing.T) {
	f, err := Run(Options{Reps: 1, Warmup: 0, Filter: regexp.MustCompile("^" + CalibrationCase + "$")})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Cases) != 1 || f.Cases[0].Warmup != 0 {
		t.Fatalf("zero-warmup run recorded as %+v", f.Cases)
	}
}

// TestAblationCounters runs the counter-bearing ablations once and checks
// the relations the design choices promise.
func TestAblationCounters(t *testing.T) {
	metric := func(name, key string) float64 {
		t.Helper()
		for _, c := range Cases() {
			if c.Name == name {
				m, err := c.Run()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				v, ok := m[key]
				if !ok {
					t.Fatalf("%s reports no %s: %v", name, key, m)
				}
				return v
			}
		}
		t.Fatalf("no case %s", name)
		return 0
	}
	if rec, no := metric("ablation/recycle/recycle", "pages_created"),
		metric("ablation/recycle/no-recycle", "pages_created"); no <= rec {
		t.Errorf("pages created: no-recycle %v <= recycle %v", no, rec)
	}
	if obj, rec := metric("ablation/headers/heap-objects", "bytes_per_record"),
		metric("ablation/headers/page-records", "bytes_per_record"); obj <= rec {
		t.Errorf("bytes/record: heap objects %v <= page records %v", obj, rec)
	}
	if dce, nodce := metric("ablation/dce/dce", "interp_instrs"),
		metric("ablation/dce/nodce", "interp_instrs"); dce >= nodce {
		t.Errorf("interpreted instructions: dce %v >= nodce %v", dce, nodce)
	}
	if removed := metric("ablation/dce/dce", "dce_removed"); removed <= 0 {
		t.Errorf("dce removed %v instructions", removed)
	}
}

func TestDecodeRejectsUnknownSchema(t *testing.T) {
	_, err := Decode(strings.NewReader(`{"schema":"facade.bench/v99","cases":[]}`))
	if err == nil || !strings.Contains(err.Error(), "unsupported schema") {
		t.Fatalf("err = %v", err)
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	f := mkFile("rt", map[string]int64{"x": 42})
	f.Cases[0].Metrics = map[string]float64{"edges_per_s": 1234.5678901}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rev != "rt" || len(got.Cases) != 1 || got.Cases[0].MedianNS != 42 {
		t.Fatalf("roundtrip = %+v", got)
	}
	// %.6g rounding is part of the schema contract.
	if got.Cases[0].Metrics["edges_per_s"] != 1234.57 {
		t.Fatalf("metric = %v, want 1234.57", got.Cases[0].Metrics["edges_per_s"])
	}
}

// TestGoldenBenchSchema pins the facade.bench/v1 wire format byte for
// byte. If this fails because the format intentionally changed, bump the
// schema version and regenerate with -update.
func TestGoldenBenchSchema(t *testing.T) {
	f := &File{
		Schema: Schema,
		Rev:    "golden",
		Cases: []Result{
			{
				Name: "interp/fib", Reps: 3, Warmup: 1,
				MedianNS: 5200000, MADNS: 130000, MinNS: 5000000, MaxNS: 5600000,
				RepsNS:  []int64{5200000, 5000000, 5600000},
				Metrics: map[string]float64{"edges_per_s": 3548510.123, "gc_ms": 0},
			},
			// The shape `repro load` emits: a sustained case aggregates a
			// whole run, so it has no per-rep samples (reps_ns null) and
			// carries the load metrics instead.
			{
				Name: "sustained/smoke/latency", Reps: 40,
				MedianNS: 25000000, MADNS: 7700000, MinNS: 2900000, MaxNS: 39100000,
				Metrics: map[string]float64{
					"p95_ns": 35500000, "p99_ns": 39100000,
					"rejections": 0, "warm_hit_rate": 0.975,
					"gc_pause_share": 0.0123, "ome_rate": 0.05,
				},
			},
		},
	}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_bench.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("facade.bench/v1 encoding changed:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
	// Determinism: encoding twice yields identical bytes.
	var buf2 bytes.Buffer
	if err := f.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("encoding is not deterministic")
	}
}
