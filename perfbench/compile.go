package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"ltsp"
)

// repeatSetup runs setup n times, or once when once is set, releasing
// every state but the last, and returns the last state and the median
// set-up seconds. An untraced run sets up several times because setup_s
// is the median; a traced run, which does not report setup_s, sets up
// once. The last set-up state is the one measured. The heap is
// collected before each set-up, out of its time, so that every set-up
// starts from the heap the first one had and none pays for collecting
// its predecessor's state.
func repeatSetup[T any](n int, once bool, setup func() (T, error), release func(T)) (T, float64, error) {
	var (
		st    T
		times Samples
	)
	if once {
		n = 1
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			release(st)
			var zero T
			st = zero
		}
		runtime.GC()
		t := time.Now()
		s, err := setup()
		if err != nil {
			return st, 0, err
		}
		st = s
		times = append(times, time.Since(t).Seconds())
	}
	return st, times.Median(), nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func readMallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// compileCorpus compiles every corpus item under both configurations,
// item-major in Configs order, and returns each compile's CPU time in ms.
func compileCorpus(ctx context.Context, corpus []*Item) ([]*ltsp.Compiled, Samples, error) {
	out := make([]*ltsp.Compiled, 0, 2*len(corpus))
	var ms Samples
	for _, it := range corpus {
		for _, cfg := range Configs {
			l := it.Gen()
			c0 := threadCPU()
			c, err := ltsp.CompileContext(ctx, l, it.Options(cfg))
			ms = append(ms, float64((threadCPU()-c0).Nanoseconds())/1e6)
			if err != nil {
				return nil, nil, fmt.Errorf("%s/%s: %w", it.Name, cfg.Name, err)
			}
			out = append(out, c)
		}
	}
	return out, ms, nil
}

// compilePasses is how often compileRate compiles the corpus.
const compilePasses = 25

// compileRate compiles the corpus compilePasses times after the timed
// region, checks every artifact against refs, and returns the
// rateFloorPct percentile of the passes' compiles per CPU second. The heap is collected before each
// pass, so that every pass starts from the same heap.
func compileRate(ctx context.Context, corpus []*Item, refs []*ltsp.Compiled, rep *Report) (float64, error) {
	var rates Samples
	for p := 0; p < compilePasses; p++ {
		runtime.GC()
		out, ms, err := compileCorpus(ctx, corpus)
		if err != nil {
			return 0, err
		}
		for i, c := range out {
			rep.Attempted++
			if err := sameArtifact(c.II, c.Stages, c.Outcome(), c.Program, refs[i], false); err != nil {
				rep.Fail("compile %s/%s: %v", corpus[i/2].Name, Configs[i%2].Name, err)
			}
		}
		rates = append(rates, float64(len(ms))/(ms.Sum()/1e3))
	}
	rep.Samples["compile_passes"] = compilePasses
	return rates.Low(rateFloorPct), nil
}

// sameArtifact compares a compile against its reference in II, stages
// and outcome, and also in the program listing when full is set.
func sameArtifact(ii, stages int, outcome string, prog interface{ Listing() string }, ref *ltsp.Compiled, full bool) error {
	if ii != ref.II || stages != ref.Stages || outcome != ref.Outcome() {
		return fmt.Errorf("II/stages/outcome %d/%d/%s, want %d/%d/%s", ii, stages, outcome, ref.II, ref.Stages, ref.Outcome())
	}
	if full && prog.Listing() != ref.Program.Listing() {
		return fmt.Errorf("program listing differs")
	}
	return nil
}

// compileSuite compiles the corpus under both configurations in a closed
// loop with one caller, calling ltsp.CompileContext. Set-up builds the
// corpus and runs one untimed warm-up pass whose artifacts are the
// references every timed compile must reproduce. After the timed region
// each reference is verified, and one simulation pass scores the code.
func compileSuite(ctx context.Context, run Run) (*Report, error) {
	runtime.LockOSThread() // for threadCPU
	defer runtime.UnlockOSThread()
	type state struct {
		corpus []*Item
		refs   []*ltsp.Compiled
	}
	// Set-up takes a fraction of a second, so it is repeated more often
	// than the other workloads' for a steady median.
	st, setupS, err := repeatSetup(7, run.Trace, func() (*state, error) {
		corpus := BuildCorpus(run.Seed)
		refs, _, err := compileCorpus(ctx, corpus)
		return &state{corpus, refs}, err
	}, func(*state) {})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.Metrics["setup_s"] = setupS
	var (
		lat, wallRates Samples
		passRates      Samples
		ps             PhaseStats
	)
	start := time.Now()
	for pass := 0; time.Since(start) < run.Duration; pass++ {
		passStart := len(lat)
		// The CPU time of the pass's compiles.
		var cpu time.Duration
		for i, it := range st.corpus {
			for c, cfg := range Configs {
				ref := st.refs[2*i+c]
				rep.Attempted++
				if run.Trace {
					c0, t := threadCPU(), time.Now()
					r, err := Replay(ctx, it, cfg, &ps, readMallocs)
					lat = append(lat, msSince(t))
					cpu += threadCPU() - c0
					if err == nil {
						err = sameArtifact(r.II, r.Stages, r.Outcome, r.Program, ref, true)
					}
					if err != nil {
						rep.Fail("replay %s/%s: %v", it.Name, cfg.Name, err)
					}
					continue
				}
				l := it.Gen()
				c0, t := threadCPU(), time.Now()
				comp, err := ltsp.CompileContext(ctx, l, it.Options(cfg))
				lat = append(lat, msSince(t))
				cpu += threadCPU() - c0
				if err == nil {
					err = sameArtifact(comp.II, comp.Stages, comp.Outcome(), comp.Program, ref, pass == 0)
				}
				if err != nil {
					rep.Fail("compile %s/%s: %v", it.Name, cfg.Name, err)
				}
			}
		}
		if n := len(lat) - passStart; n > 0 && cpu > 0 {
			passRates = append(passRates, float64(n)/cpu.Seconds())
			wallRates = append(wallRates, float64(n)/(lat[passStart:].Sum()/1e3))
		}
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	rep.Metrics["peak_rss_mb"] = rss
	// A traced run times the replays, which call the same phases.
	if err := latencyMetrics(rep, "op", lat); err != nil {
		return nil, err
	}
	rep.Metrics["compiles_per_s"] = passRates.Low(rateFloorPct)
	rep.Samples["passes"] = len(passRates)
	// One caller in a closed loop sustains exactly its completion rate.
	rep.Metrics["max_rps"] = wallRates.Median()
	if run.Trace {
		ps.Metrics(rep.Metrics)
		rep.Samples["replayed_compiles"] = int(ps.Compiles)
		if err := compileAllocs(ctx, st.corpus, rep); err != nil {
			return nil, err
		}
	}
	verifyArtifacts(st.corpus, st.refs, rep)
	return rep, checkPass(st.corpus, st.refs, run.Trace, rep)
}

// compileAllocs measures the heap allocations of one pass of
// ltsp.CompileContext over the corpus.
func compileAllocs(ctx context.Context, corpus []*Item, rep *Report) error {
	loops := make([]func() error, 0, 2*len(corpus))
	for _, it := range corpus {
		for _, cfg := range Configs {
			l, opts := it.Gen(), it.Options(cfg)
			loops = append(loops, func() error { _, err := ltsp.CompileContext(ctx, l, opts); return err })
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, f := range loops {
		if err := f(); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(len(loops))
	rep.Metrics["compile.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / n
	rep.Metrics["compile.bytes_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / n
	return nil
}

// verifyArtifacts checks every distinct artifact once with the
// independent verification layer: the structural schedule checker and
// the differential oracle against the source loop.
func verifyArtifacts(corpus []*Item, refs []*ltsp.Compiled, rep *Report) {
	for i, c := range refs {
		if err := c.Verify(); err != nil {
			rep.Fail("verify %s/%s: %v", corpus[i/2].Name, Configs[i%2].Name, err)
		}
	}
	rep.Samples["verified_artifacts"] = len(refs)
}

// checkPasses is how often checkPass times the simulation of the corpus.
const checkPasses = 12

// checkPass simulates every reference artifact over its reference trip
// distribution, outside the timed region, and reports the code's quality
// from a first pass and the simulator's speed over checkPasses more.
func checkPass(corpus []*Item, refs []*ltsp.Compiled, trace bool, rep *Report) error {
	var sst SimSetupStats
	loops := NewSimLoops(corpus, refs, &sst)
	var ps PassStats
	before := readMallocs()
	q, err := QualityPass(loops, &ps)
	if err != nil {
		return err
	}
	mallocs := readMallocs() - before
	rep.Metrics["sim_cycles"] = q.LTCycles
	rep.Metrics["lt_speedup_pct"] = q.SpeedupPct
	// The first pass, which also touches every memory image for the
	// first time, warms up; the rate comes from the passes after it.
	rates := make(LoopRates, len(loops))
	for i := 0; i < checkPasses; i++ {
		if err := rates.PassAll(loops, new(PassStats)); err != nil {
			return err
		}
	}
	rep.Metrics["sim_mcycles_per_s"] = rates.Geomean()
	rep.Samples["check_sim_runs"] = len(ps.RunMs)
	rep.Samples["check_sim_passes"] = checkPasses
	if trace {
		ps.SimMetrics(rep.Metrics)
		simLayerMetrics(rep, &sst, &ps)
		rep.Metrics["sim.allocs_per_cycle"] = float64(mallocs) / float64(ps.Cycles)
		return interpMetrics(loops, rep)
	}
	return nil
}

// simLayerMetrics reports the simulator set-up and run costs.
func simLayerMetrics(rep *Report, sst *SimSetupStats, ps *PassStats) {
	rep.Metrics["sim.run_us"] = ps.RunMs.Mean() * 1e3
	rep.Metrics["sim.ns_per_cycle"] = ps.RunMs.Sum() * 1e6 / float64(ps.Cycles)
	rep.Metrics["sim.new_runner_us"] = sst.NewRunner.Mean()
	rep.Metrics["workload.init_mem_ms"] = sst.InitMem.Mean()
}

// latencyMetrics reports the median and p99 of lat (ms) as
// <prefix>_p50_ms and <prefix>_p99_ms, with the sample count.
func latencyMetrics(rep *Report, prefix string, lat Samples) error {
	p99, err := lat.P(99)
	if err != nil {
		return fmt.Errorf("%s_p99_ms: %w", prefix, err)
	}
	rep.Metrics[prefix+"_p50_ms"] = lat.Median()
	rep.Metrics[prefix+"_p99_ms"] = p99
	rep.Samples[prefix] = len(lat)
	return nil
}
