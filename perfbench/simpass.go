package main

import (
	"fmt"
	"time"

	"ltsp"
	"ltsp/internal/interp"
	"ltsp/internal/sim"
)

// warmRunsPerSample bounds the simulated executions of one reference
// sample, as the experiments package's EvalLoop does; the remaining
// executions are extrapolated from them.
const warmRunsPerSample = 3

// SimLoop is one compiled corpus item with its own simulator, ready to
// run its reference trip distribution. Both configurations of an item
// share the item's memory image: the loops' addresses never depend on
// the data they store, so the cycle counts equal those of separate
// images, at half the memory.
type SimLoop struct {
	Item   *Item
	Config Config
	Prog   *interp.Program
	Runner *sim.Runner
	Mem    *interp.Memory
}

// SimSetupStats times the construction of SimLoops.
type SimSetupStats struct {
	InitMem, NewRunner Samples // ms, us
}

// NewSimLoops builds a runner per compiled artifact, with the
// register-stack-engine cost the experiments charge per allocated
// general register, and a memory image per item. refs holds each item
// under Configs in order.
func NewSimLoops(corpus []*Item, refs []*ltsp.Compiled, st *SimSetupStats) []*SimLoop {
	loops := make([]*SimLoop, len(refs))
	var mem *interp.Memory
	for i, c := range refs {
		it := corpus[i/len(Configs)]
		if i%len(Configs) == 0 {
			t := time.Now()
			mem = interp.NewMemory()
			it.InitMem(mem)
			st.InitMem = append(st.InitMem, float64(time.Since(t).Nanoseconds())/1e6)
		}
		conf := sim.DefaultConfig()
		if c.Pipelined {
			conf.RSECyclesPerExec = int64(0.5 * float64(c.Reg.TotalGR()))
		}
		t := time.Now()
		r := sim.NewRunner(conf)
		st.NewRunner = append(st.NewRunner, float64(time.Since(t).Nanoseconds())/1e3)
		loops[i] = &SimLoop{Item: it, Config: Configs[i%len(Configs)], Prog: c.Program, Runner: r, Mem: mem}
	}
	return loops
}

// PassStats accumulates one or more passes of SimLoop.Pass.
type PassStats struct {
	// RunMs holds the duration of every Runner.Run call.
	RunMs Samples
	// CPU is the calling thread's CPU time in all Runner.Run calls.
	CPU time.Duration
	// Cycles counts every simulated cycle, warm-ups included.
	Cycles int64
	Acct   sim.Accounting
	Loads  [5]int64
	OzQMax int
}

// Pass runs the loop over its reference trip distribution the way
// EvalLoop does: one unmeasured warm-up for a warm loop, caches dropped
// before every run of a cold loop, and at most warmRunsPerSample runs
// per sample. It returns the distribution-weighted cycle total.
func (sl *SimLoop) Pass(ps *PassStats) (float64, error) {
	run := func(trip int64) (*sim.Result, error) {
		c0, t := threadCPU(), time.Now()
		r, err := sl.Runner.Run(sl.Prog, trip, sl.Mem)
		ms := float64(time.Since(t).Nanoseconds()) / 1e6
		ps.CPU += threadCPU() - c0
		if err != nil {
			return nil, fmt.Errorf("%s/%s: sim: %w", sl.Item.Name, sl.Config.Name, err)
		}
		ps.RunMs = append(ps.RunMs, ms)
		ps.Cycles += r.Cycles
		return r, nil
	}
	ref := sl.Item.Ref
	if !sl.Item.Cold && len(ref) > 0 {
		if _, err := run(ref[0].Trip); err != nil {
			return 0, err
		}
	}
	weighted := 0.0
	for _, s := range ref {
		if s.Count <= 0 || s.Trip < 1 {
			continue
		}
		n := min(int64(warmRunsPerSample), s.Count)
		var total int64
		for i := int64(0); i < n; i++ {
			if sl.Item.Cold {
				sl.Runner.DropCaches()
			}
			r, err := run(s.Trip)
			if err != nil {
				return 0, err
			}
			total += r.Cycles
			ps.Acct.Add(r.Acct)
			for lv := range r.LoadsByLevel {
				ps.Loads[lv] += r.LoadsByLevel[lv]
			}
			ps.OzQMax = max(ps.OzQMax, r.OzQPeak)
		}
		weighted += float64(total) * float64(s.Count) / float64(n)
	}
	return weighted, nil
}

// Quality is the deterministic code-quality outcome of one pass over
// every SimLoop: the latency-tolerant configuration's weighted cycle
// total and the geomean speedup of latency-tolerant over baseline code.
type Quality struct {
	LTCycles   float64
	SpeedupPct float64
}

// LoopRates holds, for each SimLoop of a slice, the rate of every pass
// over it, in simulated Mcycles per CPU second of its Runner.Run calls.
type LoopRates []Samples

// Pass runs loop j's Pass and records its rate.
func (lr LoopRates) Pass(j int, sl *SimLoop, ps *PassStats) (float64, error) {
	cycles, cpu := ps.Cycles, ps.CPU
	w, err := sl.Pass(ps)
	if d := ps.CPU - cpu; err == nil && d > 0 {
		lr[j] = append(lr[j], float64(ps.Cycles-cycles)/d.Seconds()/1e6)
	}
	return w, err
}

// PassAll runs one pass over every loop and records their rates.
func (lr LoopRates) PassAll(loops []*SimLoop, ps *PassStats) error {
	for j, sl := range loops {
		if _, err := lr.Pass(j, sl, ps); err != nil {
			return err
		}
	}
	return nil
}

// Geomean returns the geometric mean over loops of each loop's rate at
// the rateFloorPct percentile of its passes. A loop's cost per simulated
// cycle depends on how its cycles are spent (a stall is cheap to
// simulate, an issue group is not), and the seeded loops differ from
// seed to seed in exactly that, so a rate pooled over all cycles would
// follow the seed's draw; each loop weighing the same keeps the figure
// the simulator's.
func (lr LoopRates) Geomean() float64 {
	floors := make([]float64, 0, len(lr))
	for _, r := range lr {
		if f := r.Low(rateFloorPct); f > 0 {
			floors = append(floors, f)
		}
	}
	return Geomean(floors)
}

// QualityPass runs one pass over loops, which hold each item under
// Configs in order (base, then lt), and scores it.
func QualityPass(loops []*SimLoop, ps *PassStats) (Quality, error) {
	var q Quality
	var ratios []float64
	for i := 0; i+1 < len(loops); i += 2 {
		base, err := loops[i].Pass(ps)
		if err != nil {
			return q, err
		}
		lt, err := loops[i+1].Pass(ps)
		if err != nil {
			return q, err
		}
		q.LTCycles += lt
		if base > 0 && lt > 0 {
			ratios = append(ratios, base/lt)
		}
	}
	q.SpeedupPct = (Geomean(ratios) - 1) * 100
	return q, nil
}

// SimMetrics reports the deterministic counts of ps under their PerLayer
// names.
func (ps *PassStats) SimMetrics(out map[string]float64) {
	out["sim.unstalled"] = float64(ps.Acct.Unstalled)
	out["sim.exe_bubble"] = float64(ps.Acct.ExeBubble)
	out["sim.ozq_bubble"] = float64(ps.Acct.L1DFPUBubble)
	out["sim.rse_bubble"] = float64(ps.Acct.RSEBubble)
	out["cache.loads_l1"] = float64(ps.Loads[1])
	out["cache.loads_l2"] = float64(ps.Loads[2])
	out["cache.loads_l3"] = float64(ps.Loads[3])
	out["cache.loads_mem"] = float64(ps.Loads[4])
	out["sim.ozq_peak"] = float64(ps.OzQMax)
}
