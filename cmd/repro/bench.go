package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/bench"
)

// benchCmd runs the measurement harness (internal/bench): warmup +
// repeated runs per case, median/MAD statistics, a stable facade.bench/v1
// JSON artifact, and an optional regression gate against a committed
// baseline. CI runs:
//
//	repro bench -short -json BENCH_pr.json -baseline BENCH_main.json -tolerance 10%
//
// and fails the build when any case's calibration-normalized median
// regresses past the tolerance, or when a selected case has no baseline.
func benchCmd(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	short := fs.Bool("short", false, "run only the smoke-set cases")
	reps := fs.Int("reps", 5, "measured repetitions per case")
	warmup := fs.Int("warmup", 1, "discarded warmup repetitions per case")
	filter := fs.String("filter", "", "regexp selecting case names")
	rev := fs.String("rev", "dev", "revision label stamped into the result file")
	jsonPath := fs.String("json", "", "output path (default BENCH_<rev>.json)")
	baseline := fs.String("baseline", "", "baseline facade.bench/v1 file to gate against")
	tolStr := fs.String("tolerance", "10%", "regression tolerance (e.g. 10% or 0.1)")
	slowdown := fs.Float64("slowdown", 0, "inflate measured times by this factor (gate self-test)")
	list := fs.Bool("list", false, "list cases and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, c := range bench.Cases() {
			tag := ""
			if c.Short {
				tag = "  [short]"
			}
			fmt.Printf("%s%s\n", c.Name, tag)
		}
		return nil
	}
	var re *regexp.Regexp
	if *filter != "" {
		var err error
		if re, err = regexp.Compile(*filter); err != nil {
			return fmt.Errorf("bad -filter: %w", err)
		}
	}
	tol, err := parseTolerance(*tolStr)
	if err != nil {
		return err
	}

	f, err := bench.Run(bench.Options{
		Reps: *reps, Warmup: *warmup, Short: *short, Filter: re,
		Rev: *rev, Progress: os.Stdout, Slowdown: *slowdown,
	})
	if err != nil {
		return err
	}
	out := *jsonPath
	if out == "" {
		out = "BENCH_" + *rev + ".json"
	}
	if err := f.WriteFile(out); err != nil {
		return err
	}
	fmt.Printf("wrote %d case(s) to %s\n", len(f.Cases), out)

	if *baseline == "" {
		return nil
	}
	regressed, err := gate(*baseline, f, tol)
	if err != nil {
		return err
	}
	if regressed > 0 {
		return fmt.Errorf("%d case(s) regressed beyond %.0f%%", regressed, tol*100)
	}
	fmt.Println("no regressions")
	return nil
}

// gate compares f against the baseline file at path, printing one line per
// case, and returns how many cases regressed beyond tol. A case the
// baseline does not cover is an error naming it: it was never gated.
func gate(path string, f *bench.File, tol float64) (int, error) {
	base, err := bench.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("reading baseline: %w", err)
	}
	deltas, regressed, missing := bench.Compare(base, f, tol)
	fmt.Printf("\nvs %s (rev %s, tolerance %.0f%%):\n", path, base.Rev, tol*100)
	for _, d := range deltas {
		mark := "  "
		if d.Regressed {
			mark = "!!"
		}
		fmt.Printf("%s %-28s %8.3fx (normalized %.3fx)\n", mark, d.Name, d.Ratio, d.NormRatio)
	}
	for _, name := range missing {
		fmt.Printf("?? %-28s no baseline\n", name)
	}
	if len(missing) > 0 {
		return regressed, fmt.Errorf("%d case(s) have no baseline in %s: %s",
			len(missing), path, strings.Join(missing, ", "))
	}
	return regressed, nil
}

// parseTolerance accepts "10%" or a bare fraction like "0.1".
func parseTolerance(s string) (float64, error) {
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad -tolerance %q", s)
	}
	if pct {
		v /= 100
	}
	return v, nil
}
