package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"ltsp/internal/wire"
	"ltsp/internal/wire/binary"
)

// serveTraced offers the reference rate untraced for half the run, then
// the knee rates, then the reference rate traced for a quarter of the
// run, reads every traced request's span timeline and ltspd's /metrics,
// and reports the per-layer metrics.
func serveTraced(ctx context.Context, run Run, d *Ltspd, corpus []*Item, hot []*ServeKey, chk *serveChecker, rep *Report) error {
	m0, err := d.Metrics()
	if err != nil {
		return err
	}
	cpu0, err := cpuSeconds(d.Pid())
	if err != nil {
		return err
	}
	plain, err := runLoad(ctx, d, run.Seed, 1, refRate, run.Duration/2, corpus, hot, "")
	if err != nil {
		return err
	}
	cpu1, err := cpuSeconds(d.Pid())
	if err != nil {
		return err
	}
	m1, err := d.Metrics()
	if err != nil {
		return err
	}
	knees, err := runKnees(ctx, d, run.Seed, 2, corpus, hot)
	if err != nil {
		return err
	}
	traced, err := runLoad(ctx, d, run.Seed, 2+len(kneeRates), refRate, run.Duration/4, corpus, hot, "pb")
	if err != nil {
		return err
	}
	m2, err := d.Metrics()
	if err != nil {
		return err
	}
	chk.Check(plain, rep)
	chk.Check(knees, rep)
	chk.Check(traced, rep)
	if err := phaseLatency(rep, plain, true); err != nil {
		return err
	}
	if rep.Metrics["max_rps"], err = maxRate(append(plain, knees...), rep); err != nil {
		return err
	}
	plainP50 := rep.Metrics["op_p50_ms"]
	rep.Metrics["telemetry.overhead_pct"] = (latencies(traced).Median()/plainP50 - 1) * 100
	var lag Samples
	for _, r := range plain {
		lag = append(lag, float64(r.Timing.Lag.Nanoseconds())/1e6)
	}
	if rep.Metrics["bench.gen_lag_p99_ms"], err = lag.P(99); err != nil {
		return fmt.Errorf("gen lag: %w", err)
	}
	rep.Metrics["ltspd.cpu_ms_per_req"] = (cpu1 - cpu0) * 1e3 / float64(len(plain))

	dm := m1.sub(m0)
	if lookups := float64(dm.CacheHits + dm.CacheMisses); lookups > 0 {
		rep.Metrics["server.mem_hit_frac"] = float64(dm.CacheHits) / lookups
		rep.Metrics["server.disk_hit_frac"] = float64(dm.DiskHits) / lookups
		rep.Metrics["server.miss_frac"] = float64(dm.DiskMisses) / lookups
	}
	all := m2.sub(m0)
	rep.Metrics["server.shed"] = float64(all.Shed)
	rep.Metrics["server.timeouts"] = float64(all.Timeouts)

	if err := spanMetrics(ctx, d, traced, rep); err != nil {
		return err
	}
	if err := wireMetrics(hot, chk, rep); err != nil {
		return err
	}
	if err := chk.SimQuality(hot, rep); err != nil {
		return err
	}
	rep.Metrics["sim.run_us"] = chk.RunMs.Mean() * 1e3
	rep.Metrics["sim.ns_per_cycle"] = chk.RunMs.Sum() * 1e6 / float64(chk.Cycles)
	return replayMetrics(ctx, modelItems(corpus), nil, rep)
}

// spanMetrics reads the span timeline of every traced request of reqs
// and reports the root span's self time per class and the mean duration
// of each server stage span.
func spanMetrics(ctx context.Context, d *Ltspd, reqs Reqs, rep *Report) error {
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	var self [numClasses]Samples
	stages := map[string]*Samples{
		"queue_wait": new(Samples), "mem_lookup": new(Samples), "disk_read": new(Samples),
		"compile": new(Samples), "verify": new(Samples), "write_through": new(Samples),
	}
	for _, r := range reqs {
		if r.Timing.Err != nil {
			continue
		}
		tr, err := fetchTrace(ctx, client, d.URL, r.TraceID)
		if err != nil {
			return err
		}
		var root *wire.SpanJSON
		for j := range tr.Spans {
			s := &tr.Spans[j]
			if s.Parent == "" && root == nil {
				root = s
			}
			if st, ok := stages[s.Name]; ok {
				*st = append(*st, float64(s.DurNs)/1e3)
			}
		}
		if root == nil {
			return fmt.Errorf("trace %s has no root span", r.TraceID)
		}
		c := r.Class
		self[c] = append(self[c], float64(selfTime(root, tr.Spans))/1e3)
	}
	for c, s := range self {
		rep.Metrics["server.request_self_us."+classNames[c]] = s.Mean()
		rep.Samples["traced_"+classNames[c]] = len(s)
	}
	for name, s := range stages {
		rep.Metrics["server."+name+"_us"] = s.Mean()
		rep.Samples["span_"+name] = len(*s)
	}
	return nil
}

// selfTime returns the part of root's duration its direct children do
// not cover, in ns.
func selfTime(root *wire.SpanJSON, spans []wire.SpanJSON) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	end := root.Start + root.DurNs
	for _, s := range spans {
		if s.Parent != root.ID {
			continue
		}
		a, b := max(s.Start, root.Start), min(s.Start+s.DurNs, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, cur := int64(0), root.Start
	for _, v := range ivs {
		if v.b <= cur {
			continue
		}
		covered += v.b - max(v.a, cur)
		cur = v.b
	}
	return root.DurNs - covered
}

// fetchTrace reads one request's span timeline, waiting briefly for a
// request whose trace ltspd records just after answering it.
func fetchTrace(ctx context.Context, client *http.Client, url, id string) (*wire.RequestTraceResponse, error) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v2/requests/"+id, nil)
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		var tr wire.RequestTraceResponse
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&tr)
			resp.Body.Close()
			return &tr, err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || attempt == 50 {
			return nil, fmt.Errorf("trace %s: %s", id, resp.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// wireMetrics times the wire package's public functions in this process
// on the hot keys' own bodies and served responses.
func wireMetrics(hot []*ServeKey, chk *serveChecker, rep *Report) error {
	var jsonDec, binDec, hash, enc Samples
	for _, k := range hot {
		t := time.Now()
		var req wire.CompileRequest
		if err := json.Unmarshal(k.JSON, &req); err != nil {
			return err
		}
		if _, err := req.DecodeLoop(); err != nil {
			return err
		}
		jsonDec = append(jsonDec, float64(time.Since(t).Nanoseconds())/1e3)

		t = time.Now()
		if _, err := binary.DecodeCompileRequest(k.Bin); err != nil {
			return err
		}
		binDec = append(binDec, float64(time.Since(t).Nanoseconds())/1e3)

		var fresh wire.CompileRequest
		if err := json.Unmarshal(k.JSON, &fresh); err != nil {
			return err
		}
		t = time.Now()
		if _, err := fresh.Hash(); err != nil {
			return err
		}
		hash = append(hash, float64(time.Since(t).Nanoseconds())/1e3)

		if resp, ok := chk.Resp[k.Hash]; ok {
			t = time.Now()
			if _, err := json.Marshal(resp); err != nil {
				return err
			}
			_ = binary.EncodeCompileResponse(nil, resp)
			// Mean of the JSON and the binary encoding.
			enc = append(enc, float64(time.Since(t).Nanoseconds())/2e3)
		}
	}
	rep.Metrics["wire.json_decode_us"] = jsonDec.Median()
	rep.Metrics["wire.binary_decode_us"] = binDec.Median()
	rep.Metrics["wire.hash_us"] = hash.Median()
	rep.Metrics["wire.encode_us"] = enc.Median()
	rep.Samples["wire_bodies"] = len(hot)
	return nil
}
