package main

import (
	"context"
	"fmt"
	"time"

	"ltsp/internal/core"
	"ltsp/internal/ddg"
	"ltsp/internal/hlo"
	"ltsp/internal/interp"
	"ltsp/internal/machine"
	"ltsp/internal/modsched"
	"ltsp/internal/obs"
	"ltsp/internal/regalloc"
	"ltsp/internal/sched"
)

// PhaseStats accumulates the per-phase cost of replayed compiles.
type PhaseStats struct {
	Compiles                                                                 int64
	HLO, DDGBuild, RecMII, Classify, Schedule, Allocate, Codegen, Seq, Total time.Duration

	Edges, Cycles, Truncated, Boosted, Critical     int64
	Placements, IIsTried, Rungs, Produced, Accepted int64
	AllocCalls, AllocMallocs, Overflows             int64

	// Overhead is time spent counting allocations, kept out of every
	// phase and of the compile's self time.
	Overhead time.Duration
}

// Metrics returns the per-compile averages under their PerLayer names.
func (ps *PhaseStats) Metrics(out map[string]float64) {
	n := float64(ps.Compiles)
	if n == 0 {
		return
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / n }
	per := func(v int64) float64 { return float64(v) / n }
	out["hlo.apply_us"] = us(ps.HLO)
	out["ddg.build_us"] = us(ps.DDGBuild)
	out["ddg.edges"] = per(ps.Edges)
	out["ddg.recmii_us"] = us(ps.RecMII)
	out["ddg.cycles"] = per(ps.Cycles)
	out["ddg.cycles_truncated"] = per(ps.Truncated)
	out["core.classify_us"] = us(ps.Classify)
	out["core.boosted_loads"] = per(ps.Boosted)
	out["core.critical_loads"] = per(ps.Critical)
	out["modsched.schedule_us"] = us(ps.Schedule)
	out["modsched.placements"] = per(ps.Placements)
	out["sched.iis_tried"] = per(ps.IIsTried)
	out["sched.futile_rungs"] = per(ps.Rungs - ps.Accepted)
	if ps.Produced > 0 {
		out["sched.useful_ratio"] = float64(ps.Accepted) / float64(ps.Produced)
	}
	out["regalloc.allocate_us"] = us(ps.Allocate)
	if ps.AllocCalls > 0 {
		out["regalloc.allocs_per_call"] = float64(ps.AllocMallocs) / float64(ps.AllocCalls)
	}
	out["regalloc.overflows"] = per(ps.Overflows)
	out["core.codegen_us"] = us(ps.Codegen)
	out["core.seq_us"] = us(ps.Seq)
	phases := ps.HLO + ps.DDGBuild + ps.RecMII + ps.Classify + ps.Schedule + ps.Allocate + ps.Codegen + ps.Seq
	out["compile.self_us"] = us(ps.Total - phases - ps.Overhead)
}

// Replayed is the outcome of one replayed compile.
type Replayed struct {
	Program     *interp.Program
	II, Stages  int
	Outcome     string
	Pipelined   bool
	ReducedLats bool
}

// timedScheduler is the production heuristic backend with its per-II
// scheduling attempts timed and counted. Its Search is the sequential
// search the heuristic runs at ltsp.Options.Parallelism <= 1.
type timedScheduler struct {
	ps  *PhaseStats
	iis map[int]bool
}

func (t *timedScheduler) Name() string { return sched.BackendHeuristic }

func (t *timedScheduler) ScheduleAtII(ctx context.Context, req *sched.Request, ii int, latf ddg.LatencyFn, tr *obs.Trace) (*modsched.Schedule, bool) {
	start := time.Now()
	s, ok := sched.Heuristic().ScheduleAtII(ctx, req, ii, latf, tr)
	t.ps.Schedule += time.Since(start)
	t.ps.Rungs++
	t.iis[ii] = true
	if ok {
		t.ps.Produced++
	}
	return s, ok
}

func (t *timedScheduler) Search(ctx context.Context, req *sched.Request, tr *obs.Trace, finish sched.Finisher) sched.Result {
	return sched.SequentialSearch(t, ctx, req, tr, finish)
}

// Replay compiles item it under cfg by calling the compiler's public
// phase functions one at a time, in core.PipelineCtx order, timing each
// into ps: hlo.Apply, ddg.Build, Graph.RecMII, core.Classify, the
// heuristic II search with a finisher running regalloc.AllocateTraced
// and core.GenKernel, and core.GenSequential when pipelining fails. The
// result must equal ltsp.Compile's; the benchmark checks that it does.
func Replay(ctx context.Context, it *Item, cfg Config, ps *PhaseStats, mallocs func() uint64) (*Replayed, error) {
	l := it.Gen()
	opts := it.Options(cfg)
	m := machine.Itanium2()
	start := time.Now()
	defer func() { ps.Total += time.Since(start); ps.Compiles++ }()

	t := time.Now()
	_, err := hlo.Apply(l, hlo.Options{Model: m, Mode: opts.Mode, Prefetch: opts.Prefetch, TripEstimate: opts.TripEstimate})
	ps.HLO += time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("%s: hlo: %w", it.Name, err)
	}
	if err := l.Verify(); err != nil {
		return nil, fmt.Errorf("%s: %w", it.Name, err)
	}

	t = time.Now()
	g, err := ddg.Build(l)
	ps.DDGBuild += time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("%s: ddg: %w", it.Name, err)
	}
	defer g.Release()
	ps.Edges += int64(len(g.Edges))

	resII := modsched.ResMII(m, l.Body)
	baseLat := core.BaseLatFn(m)
	t = time.Now()
	baseRecII := g.RecMII(baseLat)
	if opts.LatencyTolerant {
		// The classifier enumerates the recurrence cycles; enumerate them
		// here so the recurrence analysis is charged to ddg, not core.
		cycles := g.Cycles()
		ps.Cycles += int64(len(cycles))
		if len(cycles) >= ddg.MaxCycles {
			ps.Truncated++
		}
	}
	ps.RecMII += time.Since(t)

	t = time.Now()
	policy := core.Classify(m, g, resII, baseRecII, opts.LatencyTolerant, opts.BoostDelinquent)
	ps.Classify += time.Since(t)
	ps.Boosted += int64(len(policy.BoostedLoads(g)))
	ps.Critical += int64(len(policy.Critical))

	polLat := policy.LatFn()
	t = time.Now()
	policyRecII := g.RecMII(polLat)
	ps.RecMII += time.Since(t)
	minII := max(resII, policyRecII)
	req := &sched.Request{
		Loop: l, Model: m, Graph: g,
		PolLat: polLat, BaseLat: baseLat,
		MinII: minII, MaxII: 2*minII + 16,
		HaveBoost: opts.LatencyTolerant || opts.BoostDelinquent,
	}
	finish := func(ii int, s *modsched.Schedule, reduced bool, tr *obs.Trace) sched.Candidate {
		t := time.Now()
		before := mallocs()
		ps.Overhead += time.Since(t)
		t = time.Now()
		a, err := regalloc.AllocateTraced(m, g, s, tr, reduced)
		ps.Allocate += time.Since(t)
		t = time.Now()
		ps.AllocMallocs += int64(mallocs() - before)
		ps.Overhead += time.Since(t)
		ps.AllocCalls++
		if err != nil {
			_, overflow := err.(*regalloc.OverflowError)
			if overflow {
				ps.Overflows++
			}
			return sched.Candidate{Err: err, AllocFailed: overflow}
		}
		t = time.Now()
		p, err := core.GenKernel(l, s, a)
		ps.Codegen += time.Since(t)
		if err != nil {
			return sched.Candidate{Err: err, AllocFailed: true}
		}
		return sched.Candidate{Done: true, Payload: p}
	}
	ts := &timedScheduler{ps: ps, iis: map[int]bool{}}
	r := ts.Search(ctx, req, nil, finish)
	ps.Placements += int64(r.Attempts)
	ps.IIsTried += int64(len(ts.iis))
	if r.Found {
		ps.Accepted++
		out := &Replayed{
			Program: r.Payload.(*interp.Program), II: r.II, Stages: r.Sched.Stages,
			Pipelined: true, ReducedLats: r.Reduced, Outcome: obs.OutcomePipelined,
		}
		switch {
		case r.Reduced:
			out.Outcome = obs.OutcomeReducedLatency
		case r.II > minII:
			out.Outcome = obs.OutcomeRaisedII
		}
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t = time.Now()
	p, err := core.GenSequential(m, l)
	ps.Seq += time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("%s: sequential: %w", it.Name, err)
	}
	return &Replayed{Program: p, Outcome: obs.OutcomeSequential}, nil
}
