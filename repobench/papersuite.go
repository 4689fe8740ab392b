package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/workloads"
)

// paperSuite regenerates the paper's experiments the way one cmd/paper
// invocation does: one shared core.Runner, starting from an empty trace
// cache, so every pass pays trace building, bank-outcome tables and the
// thousands of short cycle-loop runs of the capacity sweeps and the
// multi-stream experiment. Every rendered table must equal its golden
// file byte for byte. The seed only permutes the experiment order, which
// moves the shared trace work between experiments but not the total.
type paperSuite struct {
	e      *env
	r      *core.Runner
	order  []string
	golden map[string]string
	times  map[string][]float64 // seconds per experiment, over every pass
	tables [][]byte             // the last pass's rendered tables
}

// setupPaperSuite loads the golden tables and computes every kernel's
// energy-calibration baseline (core.Runner.Baseline) on the shared
// Runner, the runs cmd/paper makes on first use; passes reuse them.
func setupPaperSuite(e *env) (instance, error) {
	names := e.size.experiments
	if names == nil {
		names = harness.Experiments
	}
	order := append([]string(nil), names...)
	rand.New(rand.NewPCG(e.seed, 1)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	p := &paperSuite{e: e, r: core.NewRunner(), order: order, golden: make(map[string]string), times: make(map[string][]float64)}
	for _, name := range order {
		data, err := os.ReadFile(filepath.Join(e.root, "internal", "harness", "testdata", "golden", name+".txt"))
		if err != nil {
			return nil, err
		}
		p.golden[name] = string(data)
	}
	workloads.ResetTraceCache()
	ks := workloads.All()
	if err := parallel.ForEach(len(ks), func(i int) error {
		_, err := p.r.Baseline(ks[i])
		return err
	}); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *paperSuite) prepare() error { return nil }

func (p *paperSuite) pass(parent span, w *window) (passResult, error) {
	workloads.ResetTraceCache()
	tabs := make([]fmt.Stringer, len(p.order))
	errs := make([]error, len(p.order))
	w.time(func() {
		for i, name := range p.order {
			sp := parent.child("harness.Run", name)
			t0 := time.Now()
			tabs[i], errs[i] = harness.Run(p.r, name)
			p.times[name] = append(p.times[name], time.Since(t0).Seconds())
			sp.end()
		}
	})
	p.tables = p.tables[:0]
	var res passResult
	for i, name := range p.order {
		res.ops++
		if errs[i] != nil {
			res.failed++
			fmt.Fprintf(p.e.log, "paper-suite: %s: %v\n", name, errs[i])
			continue
		}
		table := tabs[i].String()
		if table != p.golden[name] {
			res.failed++
			fmt.Fprintf(p.e.log, "paper-suite: %s differs from its golden table\n", name)
			continue
		}
		p.tables = append(p.tables, []byte(table))
	}
	return res, nil
}

func (p *paperSuite) report(r *report) error {
	for _, name := range p.order {
		r.add("harness."+name+"_s", "s", median(p.times[name]), len(p.times[name]))
	}
	return nil
}

// inputs are every registry kernel on the paper's baseline machine, the
// configuration every experiment normalizes to, and the rendered tables.
func (p *paperSuite) inputs() inputs {
	var in inputs
	for _, k := range workloads.All() {
		in.runs = append(in.runs, runInput{kernel: k, seed: 1, machine: machine.Default()})
	}
	in.bodies = p.tables
	return in
}

func (p *paperSuite) close() error { return nil }
