// Package sim is the cycle-accurate timing simulator for compiled loop
// programs on the in-order EPIC target: issue groups stall as a unit on
// unavailable source registers (stall-on-use scoreboarding over the
// physical, rotation-renamed register files), memory requests that pass the
// L1 occupy the OzQ and stall the pipeline when it is full, and optional
// L2 bank conflicts add latency to same-cycle same-bank accesses.
//
// Every simulated cycle is accounted to exactly one of the six
// microarchitectural states of the paper's Fig. 10: unstalled execution,
// BE_EXE_BUBBLE (data stalls), BE_L1D_FPU_BUBBLE (OzQ-full stalls),
// BE_RSE_BUBBLE (register-stack engine traffic, synthesized from the
// loop's stacked-register footprint), BE_FLUSH_BUBBLE (loop-exit branch
// flush) and BACK_END_BUBBLE.FE (front-end refill at loop entry).
package sim

import (
	"fmt"
	"io"

	"ltsp/internal/cache"
	"ltsp/internal/interp"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
	"ltsp/internal/obs"
)

// Config parameterizes a simulation.
type Config struct {
	// Model is the processor model (ports, latencies, OzQ capacity).
	Model *machine.Model
	// Cache is the hierarchy geometry.
	Cache cache.Config
	// BankConflicts enables the L2 bank-conflict model.
	BankConflicts bool
	// FEOverhead is charged once per loop execution at entry (front-end
	// refill after the branch into the loop).
	FEOverhead int
	// FlushOverhead is charged once per loop execution at exit (the final
	// mispredicted back edge flushes the in-order pipeline).
	FlushOverhead int
	// RSECyclesPerExec is charged once per loop execution as register
	// stack engine traffic; callers derive it from the loop's allocated
	// stacked registers (see experiments).
	RSECyclesPerExec int64
	// Trace, when non-nil, receives a line per issue group: the absolute
	// cycle, any stall with its cause, and the instructions issued. It is
	// a debugging aid; tracing long runs is expensive.
	Trace io.Writer
	// Timeline, when non-nil, collects a Chrome trace-event (catapult)
	// timeline: one complete event per issued instruction (tid = issue
	// lane) and one per stall interval (the reserved stall lanes), with
	// one simulated cycle mapped to one microsecond. See obs.Timeline.
	Timeline *obs.Timeline
}

// Timeline lanes (catapult tid values): stalls occupy the two reserved
// lanes so chrome://tracing shows them as their own rows above the issue
// lanes, which start at TIDLane0.
const (
	// TIDDataStall carries ExeBubble (stall-on-use) intervals.
	TIDDataStall = 0
	// TIDOzQStall carries L1DFPUBubble (OzQ-full) intervals.
	TIDOzQStall = 1
	// TIDLane0 is the first instruction issue lane.
	TIDLane0 = 2
)

// DefaultConfig returns a simulation configuration for the paper's target.
func DefaultConfig() Config {
	return Config{
		Model:         machine.Itanium2(),
		Cache:         cache.DefaultItanium2(),
		BankConflicts: true,
		FEOverhead:    6,
		FlushOverhead: 6,
	}
}

// Accounting decomposes total cycles into the Fig. 10 states.
type Accounting struct {
	Total     int64
	Unstalled int64
	// ExeBubble is BE_EXE_BUBBLE.ALL: stall-on-use data stalls.
	ExeBubble int64
	// L1DFPUBubble is BE_L1D_FPU_BUBBLE.ALL: OzQ-full stalls.
	L1DFPUBubble int64
	// RSEBubble is BE_RSE_BUBBLE.ALL.
	RSEBubble int64
	// FlushBubble is BE_FLUSH_BUBBLE.ALL.
	FlushBubble int64
	// FEBubble is BACK_END_BUBBLE.FE.
	FEBubble int64
}

// Add accumulates another accounting into a.
func (a *Accounting) Add(b Accounting) {
	a.Total += b.Total
	a.Unstalled += b.Unstalled
	a.ExeBubble += b.ExeBubble
	a.L1DFPUBubble += b.L1DFPUBubble
	a.RSEBubble += b.RSEBubble
	a.FlushBubble += b.FlushBubble
	a.FEBubble += b.FEBubble
}

// Bubbles returns the sum of all stall components.
func (a *Accounting) Bubbles() int64 {
	return a.ExeBubble + a.L1DFPUBubble + a.RSEBubble + a.FlushBubble + a.FEBubble
}

// Result reports one loop execution.
type Result struct {
	Cycles      int64
	Acct        Accounting
	KernelIters int64
	// Cache is a snapshot of hierarchy statistics deltas for this run.
	Cache cache.Stats
	// OzQFullStalls counts cycles lost to a full OzQ (== L1DFPUBubble).
	OzQFullStalls int64
	// OzQPeak is the maximum OzQ occupancy observed.
	OzQPeak int
	// BankConflictCount counts penalized same-cycle same-bank accesses.
	BankConflictCount int64
	// LoadsByLevel[l] counts demand loads served at hierarchy level l
	// (1-3 caches, 4 memory).
	LoadsByLevel [5]int64
	// LoadSiteLevels breaks LoadsByLevel down per load site (body
	// instruction ID) — the raw material for dynamic cache-miss sampling
	// (the paper's Sec. 6 outlook).
	LoadSiteLevels map[int]*[5]int64
	// LoadSiteLatency accumulates per load site the actual issue-to-data
	// latency in cycles (including waits on in-flight lines), alongside
	// the counts in LoadSiteLevels.
	LoadSiteLatency map[int]int64
	// LoadSiteStalls attributes ExeBubble cycles to the load site (body
	// instruction ID) whose unready result the stalled issue group was
	// waiting on — the per-PC stall table of the paper's Fig.-10 analysis.
	LoadSiteStalls map[int]int64
	// LoadSiteStallEvents counts distinct stall episodes per load site.
	// With clustering factor k, one episode shadows the k-1 misses issued
	// in its shadow, so misses/episodes estimates the realized k (Equ. 3).
	LoadSiteStallEvents map[int]int64
	// LoadSiteOzQStalls attributes L1DFPUBubble (OzQ-full) cycles to the
	// memory operation that had to wait for a queue slot.
	LoadSiteOzQStalls map[int]int64
	// State is the final architectural state (for correctness checks).
	State *interp.State
}

// Runner simulates programs against a persistent cache hierarchy, so that
// successive executions of a loop (trip-count distributions) see warm
// caches exactly as repeated invocations in a real program would.
//
// A Runner owns its per-issue-group scratch and reuses it from group to
// group and run to run, so a simulated cycle allocates nothing. It is
// therefore for one goroutine at a time; concurrent simulations use one
// Runner each.
type Runner struct {
	cfg  Config
	hier *cache.Hierarchy
	ozq  []int64 // completion times of in-flight requests
	// clock is the absolute cycle counter, persistent across Run calls so
	// that cache fill timestamps from earlier executions stay meaningful.
	clock int64

	regs      []ir.Reg  // one instruction's uses or defs
	defs      []defSite // the group's destinations, resolved before it executes
	loadReady []int64   // data-ready cycle of each load, by group position
}

// defSite is a destination register of an issue group, with its physical
// index recorded before the group executes. instr is nil for the cleared
// destinations of a predicated-off compare; pos is instr's group position.
type defSite struct {
	idx   int
	reg   ir.Reg
	instr *ir.Instr
	pos   int
}

// NewRunner creates a runner with a cold hierarchy.
func NewRunner(cfg Config) *Runner {
	if cfg.Model == nil {
		cfg.Model = machine.Itanium2()
	}
	return &Runner{cfg: cfg, hier: cache.New(cfg.Cache)}
}

// Hierarchy exposes the runner's cache hierarchy (tests warm or inspect it).
func (r *Runner) Hierarchy() *cache.Hierarchy { return r.hier }

// DropCaches empties the hierarchy in place (keeping its statistics and
// the global clock), modeling the eviction a loop's data suffers from the
// rest of the program between two invocations.
func (r *Runner) DropCaches() { r.hier.Reset() }

// Run simulates one execution of the program with the given trip count
// against mem (which may be shared across runs for warm data).
func (r *Runner) Run(p *interp.Program, trip int64, mem *interp.Memory) (*Result, error) {
	if trip < 1 {
		return nil, fmt.Errorf("sim: trip count %d < 1", trip)
	}
	st := interp.NewStateWith(mem)
	st.ApplySetup(p.Setup)
	st.LC = trip - 1
	st.DataRotation = !p.NoDataRotation
	res := &Result{State: st}
	statsBefore := r.hier.Stats

	var readyGR [interp.NumGR]int64
	var readyFR [interp.NumFR]int64
	var readyPR [interp.NumPR]int64
	// srcXX[i] is the load site (body instruction ID) whose in-flight
	// result register i holds, or -1 when the register's last producer was
	// not a load. The arrays drive the per-site stall attribution: a stall
	// is blamed on the site that produced the latest-ready source.
	var srcGR [interp.NumGR]int
	var srcFR [interp.NumFR]int
	var srcPR [interp.NumPR]int
	for i := range srcGR {
		srcGR[i] = -1
	}
	for i := range srcFR {
		srcFR[i] = -1
	}
	for i := range srcPR {
		srcPR[i] = -1
	}
	tl := r.cfg.Timeline

	start := r.clock
	t := start + int64(r.cfg.FEOverhead)
	res.Acct.FEBubble = int64(r.cfg.FEOverhead)
	r.ozq = r.ozq[:0]

	model := r.cfg.Model
	banks := model.L2Banks
	var bankOf map[int64]bool
	if r.cfg.BankConflicts && banks > 0 {
		bankOf = make(map[int64]bool, 8)
	}

	if p.Pipelined {
		st.EC = int64(p.Stages)
		st.PR[interp.RotPRLo] = true
	}

	runGroup := func(group []*ir.Instr) error {
		// Stall-on-use: the whole issue group waits for every source of
		// every enabled instruction (and for all qualifying predicates).
		// stallSite tracks the load that produced the latest-ready source,
		// so the whole stall episode is attributed to one load site.
		maxReady := t
		stallSite := -1
		for _, in := range group {
			if !in.Pred.IsNone() {
				idx := st.PhysIndex(in.Pred)
				if v := readyPR[idx]; v > maxReady {
					maxReady = v
					stallSite = srcPR[idx]
				}
			}
			if !st.PredOn(in) {
				continue
			}
			r.regs = in.AppendUses(r.regs[:0])
			for _, u := range r.regs {
				if u.IsNone() {
					continue
				}
				var v int64
				site := -1
				idx := st.PhysIndex(u)
				switch u.Class {
				case ir.ClassGR:
					v, site = readyGR[idx], srcGR[idx]
				case ir.ClassFR:
					v, site = readyFR[idx], srcFR[idx]
				case ir.ClassPR:
					v, site = readyPR[idx], srcPR[idx]
				}
				if v > maxReady {
					maxReady = v
					stallSite = site
				}
			}
		}
		if maxReady > t {
			d := maxReady - t
			res.Acct.ExeBubble += d
			if stallSite >= 0 {
				if res.LoadSiteStalls == nil {
					res.LoadSiteStalls = map[int]int64{}
					res.LoadSiteStallEvents = map[int]int64{}
				}
				res.LoadSiteStalls[stallSite] += d
				res.LoadSiteStallEvents[stallSite]++
			}
			if tl.On() {
				tl.Complete("stall(data)", t, d, 0, TIDDataStall,
					map[string]any{"site": stallSite})
			}
			if r.cfg.Trace != nil {
				fmt.Fprintf(r.cfg.Trace, "%8d  stall %d cycles (data)\n", t, d)
			}
			t = maxReady
		}
		if r.cfg.Trace != nil {
			for _, in := range group {
				state := "  "
				if !st.PredOn(in) {
					state = "--"
				}
				fmt.Fprintf(r.cfg.Trace, "%8d  %s %s\n", t, state, in)
			}
		}
		if tl.On() {
			for lane, in := range group {
				name := in.String()
				if !st.PredOn(in) {
					name = "-- " + name
				}
				tl.Complete(name, t, 1, 0, TIDLane0+lane, nil)
			}
		}

		// Record physical destination indices before execution (rotation
		// does not occur within a group, but the state's values change).
		defs := r.defs[:0]
		for pos, in := range group {
			if !st.PredOn(in) {
				// cmp.unc still clears its destinations; they become ready
				// next cycle.
				switch in.Op {
				case ir.OpCmpEq, ir.OpCmpLt, ir.OpCmpEqI, ir.OpCmpLtI, ir.OpFCmpLt:
					for _, d := range in.Dsts {
						if !d.IsNone() {
							defs = append(defs, defSite{st.PhysIndex(d), d, nil, pos})
						}
					}
				}
				continue
			}
			r.regs = in.AppendDefs(r.regs[:0])
			for _, d := range r.regs {
				if d.IsNone() {
					continue
				}
				defs = append(defs, defSite{st.PhysIndex(d), d, in, pos})
			}
		}
		r.defs = defs

		effs, err := st.Group(group)
		if err != nil {
			return err
		}

		clear(bankOf)
		// Memory requests: OzQ admission, cache access, bank conflicts.
		if cap(r.loadReady) < len(group) {
			r.loadReady = make([]int64, len(group))
		}
		loadReady := r.loadReady[:len(group)]
		clear(loadReady)
		for i, in := range group {
			eff := effs[i]
			if !eff.Executed || !eff.IsMem {
				continue
			}
			// Drain completed OzQ entries.
			r.drainOzQ(t)
			if len(r.ozq) >= model.OzQCapacity {
				wait := r.minOzQ()
				if wait > t {
					res.Acct.L1DFPUBubble += wait - t
					res.OzQFullStalls += wait - t
					if res.LoadSiteOzQStalls == nil {
						res.LoadSiteOzQStalls = map[int]int64{}
					}
					res.LoadSiteOzQStalls[in.ID] += wait - t
					if tl.On() {
						tl.Complete("stall(ozq)", t, wait-t, 0, TIDOzQStall,
							map[string]any{"site": in.ID})
					}
					t = wait
				}
				r.drainOzQ(t)
			}
			kind := cache.Load
			switch {
			case eff.IsStore:
				kind = cache.Store
			case eff.IsPrefetch:
				if in.Mem.Hint == ir.HintL2 {
					kind = cache.PrefetchL2
				} else {
					kind = cache.PrefetchL1
				}
			}
			cres := r.hier.Access(t, eff.Addr, eff.FP, kind)
			if eff.IsLoad {
				res.LoadsByLevel[cres.Level]++
				if res.LoadSiteLevels == nil {
					res.LoadSiteLevels = map[int]*[5]int64{}
					res.LoadSiteLatency = map[int]int64{}
				}
				site := res.LoadSiteLevels[in.ID]
				if site == nil {
					site = new([5]int64)
					res.LoadSiteLevels[in.ID] = site
				}
				site[cres.Level]++
				res.LoadSiteLatency[in.ID] += cres.ReadyAt - t
			}
			if bankOf != nil && cres.MissedL1 {
				bank := (eff.Addr >> 4) & int64(banks-1)
				if bankOf[bank] {
					cres.ReadyAt += int64(model.BankConflictPenalty)
					res.BankConflictCount++
				}
				bankOf[bank] = true
			}
			if cres.MissedL1 && !cres.Merged {
				r.ozq = append(r.ozq, cres.ReadyAt)
				if len(r.ozq) > res.OzQPeak {
					res.OzQPeak = len(r.ozq)
				}
			}
			if eff.IsLoad {
				loadReady[i] = cres.ReadyAt
			}
		}

		// Publish destination ready times and record which load (if any)
		// produced each register, for the stall attribution.
		for _, d := range defs {
			var ready int64
			site := -1
			switch {
			case d.instr == nil:
				ready = t + 1 // cleared compare destinations
			case d.instr.Op.IsLoad() && d.reg == d.instr.Dsts[0]:
				ready = loadReady[d.pos] // load data result
				site = d.instr.ID
			case d.instr.Op.IsMem():
				ready = t + 1 // post-incremented base
			default:
				ready = t + int64(model.Latency(d.instr.Op))
			}
			switch d.reg.Class {
			case ir.ClassGR:
				if d.idx != 0 {
					readyGR[d.idx] = ready
					srcGR[d.idx] = site
				}
			case ir.ClassFR:
				readyFR[d.idx] = ready
				srcFR[d.idx] = site
			case ir.ClassPR:
				readyPR[d.idx] = ready
				srcPR[d.idx] = site
			}
		}
		t++
		return nil
	}

	maxIters := trip + int64(p.Stages) + 4 // runaway cap for while loops
	switch {
	case p.Pipelined && !p.WhileQP.IsNone():
		st.EC = int64(p.Stages)
		for res.KernelIters < maxIters {
			for _, g := range p.Groups {
				if err := runGroup(g); err != nil {
					return nil, err
				}
			}
			res.KernelIters++
			if !st.Wtop(p.WhileQP) {
				break
			}
		}
	case p.Pipelined:
		rotEvery := len(p.Groups)
		if p.RotateEvery > 0 {
			rotEvery = p.RotateEvery
		}
	kernel:
		for {
			for c, g := range p.Groups {
				if err := runGroup(g); err != nil {
					return nil, err
				}
				if (c+1)%rotEvery == 0 {
					res.KernelIters++
					if !st.Ctop() {
						break kernel
					}
				}
			}
		}
	case !p.WhileQP.IsNone():
		for res.KernelIters < maxIters {
			for _, g := range p.Groups {
				if err := runGroup(g); err != nil {
					return nil, err
				}
			}
			res.KernelIters++
			if !st.PR[st.PhysIndex(p.WhileQP)] {
				break
			}
		}
	default:
		for {
			for _, g := range p.Groups {
				if err := runGroup(g); err != nil {
					return nil, err
				}
			}
			res.KernelIters++
			if !st.Cloop() {
				break
			}
		}
	}

	res.Acct.FlushBubble = int64(r.cfg.FlushOverhead)
	t += int64(r.cfg.FlushOverhead)
	res.Acct.RSEBubble = r.cfg.RSECyclesPerExec
	t += r.cfg.RSECyclesPerExec

	r.clock = t
	res.Cycles = t - start
	res.Acct.Total = res.Cycles
	res.Acct.Unstalled = res.Cycles - res.Acct.Bubbles()
	res.Cache = diffStats(statsBefore, r.hier.Stats)
	return res, nil
}

func (r *Runner) drainOzQ(now int64) {
	w := 0
	for _, c := range r.ozq {
		if c > now {
			r.ozq[w] = c
			w++
		}
	}
	r.ozq = r.ozq[:w]
}

func (r *Runner) minOzQ() int64 {
	min := r.ozq[0]
	for _, c := range r.ozq[1:] {
		if c < min {
			min = c
		}
	}
	return min
}

func diffStats(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Accesses:   b.Accesses - a.Accesses,
		HitsL1:     b.HitsL1 - a.HitsL1,
		HitsL2:     b.HitsL2 - a.HitsL2,
		HitsL3:     b.HitsL3 - a.HitsL3,
		Memory:     b.Memory - a.Memory,
		Merges:     b.Merges - a.Merges,
		Prefetches: b.Prefetches - a.Prefetches,
	}
}
