package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"ltsp"
	"ltsp/internal/interp"
)

// simulateSuite runs sim.Runner.Run over every corpus loop's reference
// trip distribution in a closed loop with one caller, under both
// compiler configurations. Set-up compiles the corpus and builds each
// loop's runner and memory image. The first timed pass scores the code.
func simulateSuite(ctx context.Context, run Run) (*Report, error) {
	runtime.LockOSThread() // for threadCPU
	defer runtime.UnlockOSThread()
	type state struct {
		corpus []*Item
		refs   []*ltsp.Compiled
		loops  []*SimLoop
		sst    SimSetupStats
	}
	st, setupS, err := repeatSetup(3, run.Trace, func() (*state, error) {
		s := &state{corpus: BuildCorpus(run.Seed)}
		refs, _, err := compileCorpus(ctx, s.corpus)
		if err != nil {
			return nil, err
		}
		s.refs = refs
		s.loops = NewSimLoops(s.corpus, refs, &s.sst)
		return s, nil
	}, func(*state) {})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.Metrics["setup_s"] = setupS

	var (
		first, all PassStats
		passRates  Samples
	)
	// Each loop's rates come from the passes after the first, which
	// scores the code.
	rates := make(LoopRates, len(st.loops))
	// score records pass p's run rate and folds it into all.
	score := func(p *PassStats) {
		passRates = append(passRates, float64(len(p.RunMs))/(p.RunMs.Sum()/1e3))
		all.RunMs = append(all.RunMs, p.RunMs...)
		all.Cycles += p.Cycles
	}
	before := readMallocs()
	start := time.Now()
	q, err := QualityPass(st.loops, &first)
	if err != nil {
		return nil, err
	}
	score(&first)
	for time.Since(start) < run.Duration {
		var p PassStats
		if err := rates.PassAll(st.loops, &p); err != nil {
			return nil, err
		}
		score(&p)
	}
	mallocs := readMallocs() - before
	rep.Attempted = int64(len(all.RunMs))
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	rep.Metrics["peak_rss_mb"] = rss
	rep.Metrics["sim_cycles"] = q.LTCycles
	rep.Metrics["lt_speedup_pct"] = q.SpeedupPct
	rep.Metrics["sim_mcycles_per_s"] = rates.Geomean()
	// The median pass's, so a burst of machine noise moves one pass, not
	// the figure. One caller in a closed loop sustains exactly its
	// completion rate.
	rep.Metrics["max_rps"] = passRates.Median()
	rep.Samples["passes"] = len(passRates)
	if err := latencyMetrics(rep, "op", all.RunMs); err != nil {
		return nil, err
	}
	verifyArtifacts(st.corpus, st.refs, rep)
	if run.Trace {
		first.SimMetrics(rep.Metrics)
		simLayerMetrics(rep, &st.sst, &all)
		rep.Metrics["sim.allocs_per_cycle"] = float64(mallocs) / float64(all.Cycles)
		if err := interpMetrics(st.loops, rep); err != nil {
			return nil, err
		}
		if err := replayMetrics(ctx, st.corpus, nil, rep); err != nil {
			return nil, err
		}
	}
	// The compile rate comes last, with the memory images released: beside
	// them every allocation lands in memory no cache holds, and the rate
	// followed the host's memory traffic more than the compiler.
	st.loops = nil
	if rep.Metrics["compiles_per_s"], err = compileRate(ctx, st.corpus, st.refs, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// interpMetrics times the functional interpreter on the same programs
// and reference trips the simulator runs.
func interpMetrics(loops []*SimLoop, rep *Report) error {
	var ns, iters int64
	for _, sl := range loops {
		for _, s := range sl.Item.Ref {
			if s.Trip < 1 {
				continue
			}
			t := time.Now()
			if _, err := interp.Run(sl.Prog, s.Trip, sl.Mem); err != nil {
				return fmt.Errorf("%s/%s: interp: %w", sl.Item.Name, sl.Config.Name, err)
			}
			ns += time.Since(t).Nanoseconds()
			iters += s.Trip
		}
	}
	rep.Metrics["interp.run_ns_per_iter"] = float64(ns) / float64(iters)
	return nil
}

// replayMetrics replays one compile of every corpus item under both
// configurations through the phase functions, checks each against refs
// when given, and reports the per-phase costs.
func replayMetrics(ctx context.Context, corpus []*Item, refs []*ltsp.Compiled, rep *Report) error {
	var ps PhaseStats
	for i, it := range corpus {
		for c, cfg := range Configs {
			r, err := Replay(ctx, it, cfg, &ps, readMallocs)
			if err != nil {
				return err
			}
			if refs != nil {
				if err := sameArtifact(r.II, r.Stages, r.Outcome, r.Program, refs[2*i+c], true); err != nil {
					rep.Fail("replay %s/%s: %v", it.Name, cfg.Name, err)
				}
			}
		}
	}
	ps.Metrics(rep.Metrics)
	rep.Samples["replayed_compiles"] = int(ps.Compiles)
	return nil
}
