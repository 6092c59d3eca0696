package main

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/stdlib"
)

// compile builds a program through each compiler layer's public call, one
// span per call, the way facade.Compile and facade.Transform chain them.
// It returns the lowered program P and the program to run: P' when data
// classes are given, else P. The program to run must pass the IR verifier;
// its lifetime classification is computed as `facadec vet -lifetimes`
// does.
func compile(tr *tracer, job int, sources map[string]string, dataClasses []string) (lowered, run *ir.Program, err error) {
	end, root := tr.begin("compile", 0, job)
	defer end()
	var (
		files []*lang.File
		h     *lang.Hierarchy
	)
	type step struct {
		name string
		fn   func() error
	}
	steps := []step{
		{"stdlib.ParseWith", func() (err error) { files, err = stdlib.ParseWith(sources); return }},
		{"lang.BuildHierarchy", func() (err error) { h, err = lang.BuildHierarchy(files...); return }},
		{"lang.Check", func() error { return lang.Check(h) }},
		{"lower.Program", func() (err error) { lowered, err = lower.Program(h); run = lowered; return }},
	}
	if len(dataClasses) > 0 {
		steps = append(steps, step{"core.Transform", func() (err error) {
			run, err = core.Transform(lowered, core.Options{DataClasses: dataClasses})
			return
		}})
	}
	steps = append(steps,
		step{"analysis.VerifyProgram", func() error { return analysis.VerifyProgram(run) }},
		step{"analysis.Lifetimes", func() error { analysis.Lifetimes(run); return nil }})
	for _, s := range steps {
		if err := tr.do(s.name, root, job, s.fn); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return lowered, run, nil
}

// compileLayers sets the compiler-layer metrics from the traced compiles:
// the median time of each call, and the instruction counts of the lowered
// program and of its transformed form (0 when nothing was transformed).
func compileLayers(m map[string]float64, tr *tracer, lowered, transformed *ir.Program) {
	med := func(name string) float64 { return ms(medianDur(tr.durations(name))) }
	m["lang.parse_ms"] = med("stdlib.ParseWith")
	m["lang.check_ms"] = med("lang.BuildHierarchy") + med("lang.Check")
	m["lower.lower_ms"] = med("lower.Program")
	m["core.transform_ms"] = med("core.Transform")
	m["analysis.verify_ms"] = med("analysis.VerifyProgram")
	m["analysis.lifetimes_ms"] = med("analysis.Lifetimes")
	if lowered != nil {
		m["lower.ir_instrs"] = float64(lowered.NumInstrs())
	}
	if transformed != nil && transformed.Transformed {
		m["core.ir_instrs"] = float64(transformed.NumInstrs())
	}
}
