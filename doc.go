// Package repro is a from-scratch Go reproduction of "FACADE: A Compiler
// and Runtime for (Almost) Object-Bounded Big Data Applications" (Nguyen,
// Wang, Bu, Fang, Hu, Xu — ASPLOS 2015).
//
// The repository contains the paper's contribution — the FACADE compiler
// transform (internal/core) and its off-heap page runtime
// (internal/offheap) — together with every substrate the evaluation
// depends on: a small managed object language and VM with a generational
// garbage collector (internal/lang, internal/ir, internal/lower,
// internal/vm, internal/heap), and reimplementations of the three
// evaluated frameworks, GraphChi (internal/graphchi), Hyracks
// (internal/hyracks) on a simulated shared-nothing cluster
// (internal/cluster, internal/dfs), and GPS (internal/gps).
//
// The public API lives in the facade package: Compile, Transform, and Run
// with functional options (WithHeapSize, WithEntry, WithRandSeed,
// WithObserver); Result.Stats returns a self-contained RunStats mirror of
// everything a run measured. The measurements come from a per-VM stats
// registry (internal/obs) — counters, gauges, GC-pause histograms, and a
// bounded event stream — documented in docs/OBSERVABILITY.md.
//
// cmd/repro regenerates every table and figure of the paper's §4 (add
// -json for machine-readable run reports); `repro bench` runs the
// benchmark registry (internal/bench), including the design-choice
// ablations; cmd/facadec is the standalone compiler driver. See DESIGN.md
// for the system inventory and EXPERIMENTS.md for paper-vs-measured
// results.
package repro
