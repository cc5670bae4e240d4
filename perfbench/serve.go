package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"time"

	"ltsp"
	"ltsp/internal/ir"
	"ltsp/internal/wire"
	"ltsp/internal/wire/binary"
)

// Request classes of the serve-mix.
const (
	classHit = iota
	classCold
	classSim
	classBatch
	numClasses
)

var classNames = [numClasses]string{"hit", "cold", "simulate", "batch"}

// Serve-mix shape. The op latencies are measured at the reference rate,
// about a third of what a two-core machine sustains within the latency
// limit: a tail any closer to the knee moves too much from run to run to
// bound a regression. The knee rates bracket where the p99 crosses the
// limit. They are 15% apart rather than closer because on a shared
// 2-vCPU Xeon VM the knee drifted by up to a third over tens of minutes,
// and rates 10% apart missed it in most runs.
const refRate = 200.0

var (
	kneeRates = []float64{510, 590, 680}
	// simTrips are the short trip counts /v2/simulate runs.
	simTrips = []int64{16, 32, 64, 128}
)

const (
	warmUp        = time.Second
	serveConns    = 2
	batchItems    = 8
	hotTripShifts = 3 // trip-estimate variants per (loop, config) hot key
	zipfS         = 1.1
	p99LimitMs    = 20
	maxFailFrac   = 0.001
	// kneeSamples is the expected request count at a knee rate: enough
	// that a p99 almost surely has minTail samples beyond it.
	kneeSamples = 1.25 * 100 * minTail
	// coldTripBase offsets the trip estimates of never-seen keys past
	// any hot key's, so every cold key hashes to a new artifact.
	coldTripBase = 1_000_000
)

// ServeKey is one compile request's (loop, options) pair, with both body
// encodings and the artifact hash computed in-process.
type ServeKey struct {
	Item *Item
	Cfg  Config
	Trip float64
	// Twin is the same loop and trip estimate under the other config.
	Twin      *ServeKey
	JSON, Bin []byte
	Loop      json.RawMessage
	Wire      wire.Options
	Hash      string
}

// Options returns the compiler options the key requests.
func (k *ServeKey) Options() ltsp.Options {
	o := k.Item.Options(k.Cfg)
	o.TripEstimate = k.Trip
	return o
}

// NewServeKey encodes the compile request of it under cfg with trip
// estimate trip.
func NewServeKey(it *Item, cfg Config, trip float64) (*ServeKey, error) {
	k := &ServeKey{Item: it, Cfg: cfg, Trip: trip}
	opts := k.Options()
	creq, err := wire.NewCompileRequest(it.Gen(), opts)
	if err != nil {
		return nil, err
	}
	if k.JSON, err = json.Marshal(creq); err != nil {
		return nil, err
	}
	if k.Hash, err = creq.Hash(); err != nil {
		return nil, err
	}
	k.Loop, k.Wire = creq.Loop, creq.Options
	k.Bin, err = binary.EncodeCompileRequest(nil, it.Gen(), k.Wire)
	return k, err
}

// HotKeys returns the hot key population: every model loop under both
// configs at hotTripShifts trip estimates, twins linked.
func HotKeys(corpus []*Item) ([]*ServeKey, error) {
	var keys []*ServeKey
	for _, it := range modelItems(corpus) {
		for s := 0; s < hotTripShifts; s++ {
			pair := make([]*ServeKey, len(Configs))
			for c, cfg := range Configs {
				k, err := NewServeKey(it, cfg, it.Trip+float64(s))
				if err != nil {
					return nil, err
				}
				pair[c] = k
			}
			pair[0].Twin, pair[1].Twin = pair[1], pair[0]
			keys = append(keys, pair...)
		}
	}
	return keys, nil
}

// ServeReq is one scheduled request and, after the run, what came back.
type ServeReq struct {
	Class int
	Path  string
	Body  []byte
	Bin   bool
	Keys  []*ServeKey
	Trip  int64
	// Rate is the offered rate of the run the request belongs to.
	Rate float64
	// TraceID, when set, is sent as X-Trace-ID.
	TraceID string

	Timing Timing
	Resp   []byte
	// Cycles is the cycle count a successful simulate request returned.
	Cycles int64
}

// Reqs is a list of requests; those of one open-loop run are in due order.
type Reqs []*ServeReq

// Where returns the requests ok accepts.
func (rs Reqs) Where(ok func(*ServeReq) bool) Reqs {
	var out Reqs
	for _, r := range rs {
		if ok(r) {
			out = append(out, r)
		}
	}
	return out
}

// AtRate returns the requests offered at rate.
func (rs Reqs) AtRate(rate float64) Reqs {
	return rs.Where(func(r *ServeReq) bool { return r.Rate == rate })
}

// Timings returns the requests' timings.
func (rs Reqs) Timings() []Timing {
	out := make([]Timing, len(rs))
	for i, r := range rs {
		out[i] = r.Timing
	}
	return out
}

// Schedule draws the requests of one run over d at rate per second:
// seeded Poisson arrivals; 70% compiles of a Zipf-drawn hot key, 15%
// compiles of never-seen keys, 10% simulations of a hot artifact at a
// short trip count, 5% batches of eight hot keys; compile bodies half
// JSON, half binary. run numbers the runs of one ltspd, so that cold
// keys never repeat.
func Schedule(seed int64, run int, rate float64, d time.Duration, corpus []*Item, hot []*ServeKey) ([]time.Duration, Reqs, error) {
	rng := rand.New(rand.NewSource(seed*1009 + int64(run)))
	due := Arrivals(rng, rate, d)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(hot)-1))
	models := modelItems(corpus)
	reqs := make(Reqs, len(due))
	for i := range due {
		r := &ServeReq{Path: "/v2/compile", Bin: rng.Intn(2) == 1, Rate: rate}
		switch u := rng.Float64(); {
		case u < 0.70:
			r.Class, r.Keys = classHit, []*ServeKey{hot[zipf.Uint64()]}
		case u < 0.85:
			it := models[rng.Intn(len(models))]
			k, err := NewServeKey(it, Configs[rng.Intn(len(Configs))], float64(coldTripBase*(run+1)+i))
			if err != nil {
				return nil, nil, err
			}
			r.Class, r.Keys = classCold, []*ServeKey{k}
		case u < 0.95:
			r.Class, r.Path, r.Bin = classSim, "/v2/simulate", false
			r.Keys, r.Trip = []*ServeKey{hot[zipf.Uint64()]}, simTrips[rng.Intn(len(simTrips))]
		default:
			r.Class, r.Path = classBatch, "/v2/compile-batch"
			for j := 0; j < batchItems; j++ {
				r.Keys = append(r.Keys, hot[zipf.Uint64()])
			}
		}
		body, err := r.encode()
		if err != nil {
			return nil, nil, err
		}
		r.Body = body
		reqs[i] = r
	}
	return due, reqs, nil
}

func (r *ServeReq) encode() ([]byte, error) {
	switch r.Class {
	case classSim:
		return json.Marshal(wire.SimulateRequest{Version: wire.Version, Hash: r.Keys[0].Hash, Trip: r.Trip})
	case classBatch:
		if r.Bin {
			loops := make([]*ir.Loop, len(r.Keys))
			opts := make([]wire.Options, len(r.Keys))
			for i, k := range r.Keys {
				loops[i], opts[i] = k.Item.Gen(), k.Wire
			}
			return binary.EncodeCompileBatch(nil, loops, opts)
		}
		b := wire.CompileBatchRequest{Version: wire.Version}
		for _, k := range r.Keys {
			b.Items = append(b.Items, wire.CompileItem{Loop: k.Loop, Options: k.Wire})
		}
		return json.Marshal(b)
	default:
		if r.Bin {
			return r.Keys[0].Bin, nil
		}
		return r.Keys[0].JSON, nil
	}
}

// Sender posts requests to ltspd over serveConns keep-alive connections
// and keeps each raw response for checking after the run.
type Sender struct {
	url     string
	clients []*http.Client
}

// NewSender returns a sender to url.
func NewSender(url string) *Sender {
	s := &Sender{url: url}
	for c := 0; c < serveConns; c++ {
		s.clients = append(s.clients, &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			},
		})
	}
	return s
}

// Close drops the idle connections.
func (s *Sender) Close() {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
}

// Send performs r on connection conn.
func (s *Sender) Send(ctx context.Context, conn int, r *ServeReq) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		return err
	}
	if r.Bin {
		hreq.Header.Set("Content-Type", binary.ContentType)
		hreq.Header.Set("Accept", binary.ContentType)
	} else {
		hreq.Header.Set("Content-Type", "application/json")
	}
	if r.TraceID != "" {
		hreq.Header.Set(wire.TraceHeader, r.TraceID)
	}
	resp, err := s.clients[conn].Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	r.Resp = body
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %.200s", r.Path, resp.StatusCode, body)
	}
	return nil
}

// send runs reqs through the open-loop generator against d on conns
// connections.
func send(ctx context.Context, d *Ltspd, due []time.Duration, reqs Reqs, conns int) {
	s := NewSender(d.URL)
	defer s.Close()
	ts := OpenLoop(ctx, due, conns, func(c, i int) error { return s.Send(ctx, c, reqs[i]) })
	for i := range reqs {
		reqs[i].Timing = ts[i]
	}
}

// runLoad schedules run number run of the mix at rate per second over
// dur and sends it to d, stamping request i with trace ID tracePrefix-i
// when a prefix is given.
func runLoad(ctx context.Context, d *Ltspd, seed int64, run int, rate float64, dur time.Duration, corpus []*Item, hot []*ServeKey, tracePrefix string) (Reqs, error) {
	due, reqs, err := Schedule(seed, run, rate, dur, corpus, hot)
	if err != nil {
		return nil, err
	}
	if tracePrefix != "" {
		for i, r := range reqs {
			r.TraceID = fmt.Sprintf("%s-%d", tracePrefix, i)
		}
	}
	send(ctx, d, due, reqs, serveConns)
	return reqs, nil
}

// fillHot compiles every hot key through ltspd, one at a time, so the
// later hot traffic finds the artifacts in the memory cache or the disk
// store. The requests are traced, so that fillRate can read ltspd's
// compile spans; one at a time, no compile contends with another.
func fillHot(ctx context.Context, d *Ltspd, hot []*ServeKey) (Reqs, error) {
	reqs := make(Reqs, len(hot))
	for i, k := range hot {
		reqs[i] = &ServeReq{
			Class: classHit, Path: "/v2/compile", Body: k.JSON, Keys: []*ServeKey{k},
			TraceID: fmt.Sprintf("fill-%d", i),
		}
	}
	send(ctx, d, make([]time.Duration, len(reqs)), reqs, 1)
	for _, r := range reqs {
		if r.Timing.Err != nil {
			return nil, fmt.Errorf("hot fill: %w", r.Timing.Err)
		}
	}
	return reqs, nil
}

// fillRate returns the compiles per second one ltspd worker sustains:
// the inverse of the median compile span of the hot fill. The span
// times the compiler inside ltspd, apart from the disk writes that
// follow it.
func fillRate(ctx context.Context, d *Ltspd, fill Reqs) (float64, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	var spans Samples
	for _, r := range fill {
		tr, err := fetchTrace(ctx, client, d.URL, r.TraceID)
		if err != nil {
			return 0, err
		}
		for _, s := range tr.Spans {
			if s.Name == "compile" {
				spans = append(spans, float64(s.DurNs)/1e9)
			}
		}
	}
	if len(spans) == 0 {
		return 0, fmt.Errorf("hot fill recorded no compile span")
	}
	return 1 / spans.Median(), nil
}

// serveMix runs the open-loop request mix against a separately started
// ltspd. Set-up starts ltspd, compiles the hot key population through it
// and warms it with a second of the mix at the reference rate. The
// untraced run offers the reference rate and then the knee rates; the
// traced run offers the reference rate untraced and then traced.
func serveMix(ctx context.Context, run Run) (*Report, error) {
	if run.Ltspd == "" || run.WorkDir == "" {
		return nil, fmt.Errorf("serve-mix needs --ltspd and --workdir")
	}
	if err := os.MkdirAll(run.WorkDir, 0o755); err != nil {
		return nil, err
	}
	corpus := BuildCorpus(run.Seed)
	hot, err := HotKeys(corpus)
	if err != nil {
		return nil, err
	}
	type state struct {
		d          *Ltspd
		fill, warm Reqs
	}
	st, setupS, err := repeatSetup(3, run.Trace, func() (*state, error) {
		d, err := StartLtspd(ctx, run.Ltspd, run.WorkDir)
		if err != nil {
			return nil, err
		}
		s := &state{d: d}
		s.fill, err = fillHot(ctx, d, hot)
		if err == nil {
			s.warm, err = runLoad(ctx, d, run.Seed, 0, refRate, warmUp, corpus, hot, "")
		}
		if err != nil {
			d.Stop()
			return nil, err
		}
		return s, nil
	}, func(s *state) { s.d.Stop() })
	if err != nil {
		return nil, err
	}
	defer st.d.Stop()

	rep := newReport()
	rep.Metrics["setup_s"] = setupS
	chk := newServeChecker()
	chk.Check(st.fill, rep)
	chk.Check(st.warm, rep)
	if run.Trace {
		err = serveTraced(ctx, run, st.d, corpus, hot, chk, rep)
	} else {
		err = serveRatesRun(ctx, run, st.d, corpus, hot, chk, rep)
	}
	if err != nil {
		return nil, err
	}
	if rep.Metrics["compiles_per_s"], err = fillRate(ctx, st.d, st.fill); err != nil {
		return nil, err
	}
	if err := chk.VerifyHot(hot, rep); err != nil {
		return nil, err
	}
	rep.Metrics["fail_frac"] = float64(rep.Failed) / float64(max(rep.Attempted, 1))
	return rep, nil
}

// kneeDuration is how long a knee rate is offered: just long enough for
// a p99 with minTail samples beyond it.
func kneeDuration(rate float64) time.Duration {
	return time.Duration(kneeSamples / rate * float64(time.Second))
}

// runKnees offers each knee rate in turn, numbering the runs from run.
func runKnees(ctx context.Context, d *Ltspd, seed int64, run int, corpus []*Item, hot []*ServeKey) (Reqs, error) {
	var all Reqs
	for i, r := range kneeRates {
		reqs, err := runLoad(ctx, d, seed, run+i, r, kneeDuration(r), corpus, hot, "")
		if err != nil {
			return nil, err
		}
		all = append(all, reqs...)
	}
	return all, nil
}

// serveRatesRun offers the reference rate and then each knee rate, and
// reports the reference rate's latencies and the highest rate meeting
// the latency limit.
func serveRatesRun(ctx context.Context, run Run, d *Ltspd, corpus []*Item, hot []*ServeKey, chk *serveChecker, rep *Report) error {
	refDur := run.Duration
	for _, r := range kneeRates {
		refDur -= kneeDuration(r)
	}
	if refDur.Seconds()*refRate < kneeSamples {
		return fmt.Errorf("serve-mix needs more than %v", run.Duration)
	}
	ref, err := runLoad(ctx, d, run.Seed, 1, refRate, refDur, corpus, hot, "")
	if err != nil {
		return err
	}
	knees, err := runKnees(ctx, d, run.Seed, 2, corpus, hot)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(d.Pid())
	if err != nil {
		return err
	}
	rep.Metrics["peak_rss_mb"] = rss
	all := append(ref, knees...)
	chk.Check(all, rep)
	if err := phaseLatency(rep, ref, false); err != nil {
		return err
	}
	if err := chk.SimQuality(hot, rep); err != nil {
		return err
	}
	rep.Metrics["max_rps"], err = maxRate(all, rep)
	return err
}
