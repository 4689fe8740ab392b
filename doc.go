// Package repro is a ground-up Go reproduction of "Unifying Primary
// Cache, Scratch, and Register File Memories in a Throughput Processor"
// (Gebhart, Keckler, Khailany, Krashinsky, Dally — MICRO 2012).
//
// The paper proposes a GPU streaming multiprocessor whose main register
// file, shared memory, and primary data cache share one pool of 32 SRAM
// banks, repartitioned per kernel. This module contains the cycle-level
// SM simulator, the unified/partitioned/Fermi-like memory designs, the 26
// synthetic Table-1 workloads, the Section 5.2 energy model, and a
// harness regenerating every table and figure of the evaluation — plus a
// multi-SM chip simulator, trace record/replay, and the design-choice
// ablations the paper argues in prose.
//
// Start with README.md, run experiments with:
//
//	go run ./cmd/paper
//
// and see DESIGN.md / EXPERIMENTS.md for the module map and the
// paper-vs-measured record. The repository benchmark (repobench/) times
// every experiment; its reports make up BENCH_results.json.
package repro
