package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"ltsp"
	"ltsp/internal/interp"
	"ltsp/internal/sim"
	"ltsp/internal/wire"
	"ltsp/internal/wire/binary"
)

// serveChecker holds the in-process references every ltspd response is
// checked against: ltsp.Compile for compiles and a fresh sim.Runner on
// an empty memory image for simulations, as ltspd runs them.
type serveChecker struct {
	refs   map[string]*ltsp.Compiled
	cycles map[simRef]int64
	// RunMs, Cycles and Mcycles time the reference simulations: each
	// run's duration, the cycles of all of them and each run's rate.
	RunMs, Mcycles Samples
	Cycles         int64
	// Resp keeps one served compile response per artifact.
	Resp map[string]*wire.CompileResponse
}

type simRef struct {
	hash string
	trip int64
}

func newServeChecker() *serveChecker {
	return &serveChecker{
		refs: map[string]*ltsp.Compiled{}, cycles: map[simRef]int64{},
		Resp: map[string]*wire.CompileResponse{},
	}
}

func (c *serveChecker) ref(k *ServeKey) (*ltsp.Compiled, error) {
	if r, ok := c.refs[k.Hash]; ok {
		return r, nil
	}
	r, err := ltsp.Compile(k.Item.Gen(), k.Options())
	if err != nil {
		return nil, fmt.Errorf("reference compile %s/%s: %w", k.Item.Name, k.Cfg.Name, err)
	}
	c.refs[k.Hash] = r
	return r, nil
}

func (c *serveChecker) refCycles(k *ServeKey, trip int64) (int64, error) {
	key := simRef{k.Hash, trip}
	if v, ok := c.cycles[key]; ok {
		return v, nil
	}
	r, err := c.ref(k)
	if err != nil {
		return 0, err
	}
	t := time.Now()
	res, err := sim.NewRunner(sim.DefaultConfig()).Run(r.Program, trip, interp.NewMemory())
	ms := msSince(t)
	if err != nil {
		return 0, fmt.Errorf("reference simulation %s: %w", k.Item.Name, err)
	}
	c.RunMs = append(c.RunMs, ms)
	c.Mcycles = append(c.Mcycles, float64(res.Cycles)/ms/1e3)
	c.Cycles += res.Cycles
	c.cycles[key] = res.Cycles
	return res.Cycles, nil
}

// VerifyHot checks the reference artifact of every hot key once with
// the independent verification layer. The never-seen keys, a model loop
// at a new trip estimate each, are checked against their references but
// not verified one by one: that would take minutes per run.
func (c *serveChecker) VerifyHot(hot []*ServeKey, rep *Report) error {
	for _, k := range hot {
		r, err := c.ref(k)
		if err != nil {
			return err
		}
		if err := r.Verify(); err != nil {
			rep.Fail("verify %s/%s: %v", k.Item.Name, k.Cfg.Name, err)
		}
	}
	rep.Samples["verified_artifacts"] = len(hot)
	return nil
}

// checkCompile compares a served compile response with the reference.
func (c *serveChecker) checkCompile(k *ServeKey, resp *wire.CompileResponse) error {
	r, err := c.ref(k)
	if err != nil {
		return err
	}
	switch {
	case resp.Hash != k.Hash:
		return fmt.Errorf("%s/%s: hash %.12s, want %.12s", k.Item.Name, k.Cfg.Name, resp.Hash, k.Hash)
	case resp.II != r.II || resp.Stages != r.Stages || resp.Outcome != r.Outcome():
		return fmt.Errorf("%s/%s: II/stages/outcome %d/%d/%s, want %d/%d/%s", k.Item.Name, k.Cfg.Name,
			resp.II, resp.Stages, resp.Outcome, r.II, r.Stages, r.Outcome())
	case resp.Listing != r.Program.Listing():
		return fmt.Errorf("%s/%s: program listing differs", k.Item.Name, k.Cfg.Name)
	}
	if _, ok := c.Resp[k.Hash]; !ok {
		c.Resp[k.Hash] = resp
	}
	return nil
}

// checkOne decodes and checks the response to r.
func (c *serveChecker) checkOne(r *ServeReq) error {
	body := r.Resp
	switch r.Class {
	case classSim:
		var resp wire.SimulateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decode simulate response: %w", err)
		}
		want, err := c.refCycles(r.Keys[0], r.Trip)
		if err != nil {
			return err
		}
		if resp.Hash != r.Keys[0].Hash || resp.Cycles != want {
			return fmt.Errorf("simulate %s trip %d: %d cycles, want %d", r.Keys[0].Item.Name, r.Trip, resp.Cycles, want)
		}
		r.Cycles = resp.Cycles
		return nil
	case classBatch:
		var resp *wire.CompileBatchResponse
		var err error
		if r.Bin {
			resp, err = binary.DecodeCompileBatchResponse(body)
		} else {
			resp = new(wire.CompileBatchResponse)
			err = json.Unmarshal(body, resp)
		}
		if err != nil {
			return fmt.Errorf("decode batch response: %w", err)
		}
		if len(resp.Items) != len(r.Keys) {
			return fmt.Errorf("batch: %d items, want %d", len(resp.Items), len(r.Keys))
		}
		for j, it := range resp.Items {
			if it.Error != "" || it.CompileResponse == nil {
				return fmt.Errorf("batch item %d: %s", j, it.Error)
			}
			if err := c.checkCompile(r.Keys[j], it.CompileResponse); err != nil {
				return fmt.Errorf("batch item %d: %w", j, err)
			}
		}
		return nil
	default:
		var resp *wire.CompileResponse
		var err error
		if r.Bin {
			resp, err = binary.DecodeCompileResponse(body)
		} else {
			resp = new(wire.CompileResponse)
			err = json.Unmarshal(body, resp)
		}
		if err != nil {
			return fmt.Errorf("decode compile response: %w", err)
		}
		return c.checkCompile(r.Keys[0], resp)
	}
}

// Check counts every request of reqs as attempted and every error
// status, timeout or mismatch with the reference as failed.
func (c *serveChecker) Check(reqs Reqs, rep *Report) {
	for i, r := range reqs {
		rep.Attempted++
		err := r.Timing.Err
		if err == nil {
			err = c.checkOne(r)
		}
		if err != nil {
			r.Timing.Err = err
			rep.Fail("%s @%g/s #%d: %v", classNames[r.Class], r.Rate, i, err)
		}
	}
}

// SimQuality scores the code the service serves: every hot loop's
// latency-tolerant artifact against its baseline twin, simulated at
// every trip count the simulate requests use. It reports the
// latency-tolerant cycle total, the geomean speedup and the median rate
// of the reference simulations. The population is fixed, so the figures
// do not move with the seed's draw of requests; the served cycles are
// checked against the same references.
func (c *serveChecker) SimQuality(hot []*ServeKey, rep *Report) error {
	var total int64
	var ratios []float64
	for _, k := range hot {
		if !k.Cfg.LT {
			continue
		}
		for _, trip := range simTrips {
			bc, err := c.refCycles(k.Twin, trip)
			if err != nil {
				return err
			}
			lc, err := c.refCycles(k, trip)
			if err != nil {
				return err
			}
			total += lc
			ratios = append(ratios, float64(bc)/float64(lc))
		}
	}
	rep.Metrics["sim_cycles"] = float64(total)
	rep.Metrics["lt_speedup_pct"] = (Geomean(ratios) - 1) * 100
	rep.Metrics["sim_mcycles_per_s"] = c.Mcycles.Median()
	rep.Samples["reference_sims"] = len(c.Mcycles)
	return nil
}

// latencies returns the latencies (ms) of the requests of the given
// classes (all when none given); a failed request counts as infinitely
// slow, so it misses any latency limit.
func latencies(reqs Reqs, classes ...int) Samples {
	var out Samples
	for _, r := range reqs {
		if len(classes) > 0 && !containsInt(classes, r.Class) {
			continue
		}
		v := float64(r.Timing.Latency.Nanoseconds()) / 1e6
		if r.Timing.Err != nil {
			v = math.Inf(1)
		}
		out = append(out, v)
	}
	return out
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// phaseLatency reports the op latencies of reqs and, when asMetrics is
// set, the hit and cold latencies.
func phaseLatency(rep *Report, reqs Reqs, asMetrics bool) error {
	if err := latencyMetrics(rep, "op", latencies(reqs)); err != nil {
		return err
	}
	hit, cold := latencies(reqs, classHit), latencies(reqs, classCold)
	rep.Samples["hit"], rep.Samples["cold"] = len(hit), len(cold)
	if !asMetrics {
		return nil
	}
	if err := latencyMetrics(rep, "hit", hit); err != nil {
		return err
	}
	// Cold compiles are 15% of the mix: a run holds too few of them for a
	// p99 with minTail samples beyond it, so their tail is the p95.
	p95, err := cold.P(95)
	if err != nil {
		return fmt.Errorf("cold_p95_ms: %w", err)
	}
	rep.Metrics["cold_p95_ms"] = p95
	return nil
}

// maxRate returns the highest rate whose p99 meets the latency limit
// with at most maxFailFrac failed and no backlog growth, interpolated
// between the offered rates (see crossing).
func maxRate(reqs Reqs, rep *Report) (float64, error) {
	var vs []rateVerdict
	for _, rate := range append([]float64{refRate}, kneeRates...) {
		at := reqs.AtRate(rate)
		lat := latencies(at)
		p99, err := lat.P(99)
		if err != nil {
			return 0, fmt.Errorf("p99 at %g/s: %w", rate, err)
		}
		failed := len(at.Where(func(r *ServeReq) bool { return r.Timing.Err != nil }))
		grows := BacklogGrows(at.Timings())
		unsound := float64(failed) > maxFailFrac*float64(len(lat)) || grows
		vs = append(vs, rateVerdict{rate, p99, unsound})
		key := fmt.Sprintf("rate_%g", rate)
		rep.Samples[key] = len(lat)
		rep.Extra[key+".p50_ms"] = lat.Median()
		rep.Extra[key+".p99_ms"] = p99
		rep.Extra[key+".failed"] = float64(failed)
		if grows {
			rep.Extra[key+".backlog_grows"] = 1
		}
	}
	return crossing(vs), nil
}

// rateVerdict is one offered rate's outcome: its p99 (ms) and whether
// it failed for another reason than the p99 (failures or a growing
// backlog).
type rateVerdict struct {
	rate, p99 float64
	unsound   bool
}

// crossing returns the rate at which the p99, made non-decreasing in the
// rate by pooling adjacent violators, crosses p99LimitMs, interpolating
// linearly between the offered rates. A rate that fails for another
// reason caps the result below it. When every rate meets the limit the
// highest is returned; when none does, the lowest scaled down by how far
// its p99 misses.
func crossing(vs []rateVerdict) float64 {
	// Pool adjacent violators: noise must not make a higher rate look
	// faster than a lower one.
	type block struct{ sum, n float64 }
	var blocks []block
	for _, v := range vs {
		blocks = append(blocks, block{v.p99, 1})
		for len(blocks) > 1 {
			a, b := blocks[len(blocks)-2], blocks[len(blocks)-1]
			if a.sum/a.n <= b.sum/b.n {
				break
			}
			blocks = append(blocks[:len(blocks)-2], block{a.sum + b.sum, a.n + b.n})
		}
	}
	p99 := make([]float64, 0, len(vs))
	for _, b := range blocks {
		for i := 0; i < int(b.n); i++ {
			p99 = append(p99, b.sum/b.n)
		}
	}
	for i, v := range vs {
		if v.unsound {
			p99[i] = math.Inf(1)
			for j := i + 1; j < len(p99); j++ {
				p99[j] = math.Inf(1)
			}
			break
		}
	}
	if p99[0] > p99LimitMs {
		if math.IsInf(p99[0], 1) {
			return vs[0].rate / 2
		}
		return vs[0].rate * p99LimitMs / p99[0]
	}
	for i := 1; i < len(vs); i++ {
		if p99[i] > p99LimitMs {
			lo, hi := vs[i-1].rate, vs[i].rate
			if math.IsInf(p99[i], 1) {
				return lo
			}
			return lo + (hi-lo)*(p99LimitMs-p99[i-1])/(p99[i]-p99[i-1])
		}
	}
	return vs[len(vs)-1].rate
}
