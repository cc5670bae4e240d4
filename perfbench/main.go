// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a fixed time, checks every output it produces against
// an independent in-process reference, and prints its metrics:
//
//	perfbench --workload compile-suite --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output holds the end-to-end
// metrics (metrics.go, EndToEnd); with --trace 1 it holds the per-layer
// metrics (PerLayer), measured by timing the calls the benchmark makes
// into each layer's public functions and by reading ltspd's own request
// spans and /metrics. The line before it records the machine, the seed
// and the sample counts. Any incorrect output makes the exit code 1.
// See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// Run is one benchmark invocation's parameters.
type Run struct {
	Workload string
	Seed     int64
	Duration time.Duration
	Trace    bool
	// Ltspd is the service binary serve-mix starts; WorkDir holds its
	// data directories.
	Ltspd, WorkDir string
}

// Report is what a workload measured.
type Report struct {
	Attempted, Failed int64
	// Failures describes the first few failed operations.
	Failures []string
	Metrics  map[string]float64
	// Samples counts the measurements behind each reported metric.
	Samples map[string]int
	// Extra holds figures printed on the detail line only, such as each
	// offered rate's p99.
	Extra map[string]float64
}

func newReport() *Report {
	return &Report{Metrics: map[string]float64{}, Samples: map[string]int{}, Extra: map[string]float64{}}
}

// Fail records one failed or incorrect operation.
func (r *Report) Fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// Workloads maps each workload name to its implementation.
var Workloads = map[string]func(context.Context, Run) (*Report, error){
	"compile-suite":  compileSuite,
	"simulate-suite": simulateSuite,
	"serve-mix":      serveMix,
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type detailJSON struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Seconds  float64            `json:"seconds"`
	Machine  Machine            `json:"machine"`
	FailFrac float64            `json:"fail_frac"`
	Failures []string           `json:"failures,omitempty"`
	Samples  map[string]int     `json:"samples"`
	Extra    map[string]float64 `json:"extra,omitempty"`
}

func main() {
	var (
		run     Run
		seconds int
		trace   int
	)
	flag.StringVar(&run.Workload, "workload", "", "workload to run")
	flag.Int64Var(&run.Seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&run.Ltspd, "ltspd", "", "ltspd binary (serve-mix)")
	flag.StringVar(&run.WorkDir, "workdir", "", "scratch directory for ltspd data (serve-mix)")
	flag.Parse()
	run.Duration = time.Duration(seconds) * time.Second
	run.Trace = trace != 0
	wl, ok := Workloads[run.Workload]
	if !ok || seconds < 1 {
		names := make([]string, 0, len(Workloads))
		for n := range Workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v) and --seconds >= 1\n", names)
		os.Exit(2)
	}
	rep, err := wl(context.Background(), run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", run.Workload, err)
		os.Exit(1)
	}
	code, err := emit(os.Stdout, run, rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", run.Workload, err)
		os.Exit(1)
	}
	os.Exit(code)
}

// emit prints the detail line and the result line and returns the exit
// code: 1 when any operation failed or was incorrect.
func emit(w *os.File, run Run, rep *Report) (int, error) {
	defs := EndToEnd
	if run.Trace {
		defs = PerLayer
	}
	// A metric that is not a finite number means the measurement broke,
	// for instance every request failed; JSON cannot carry it either.
	for name, v := range rep.Metrics {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			rep.Fail("metric %s is %v", name, v)
			rep.Metrics[name] = 0
		}
	}
	res := resultJSON{
		Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: map[string]metricJSON{},
	}
	for _, d := range defs {
		v, ok := rep.Metrics[d.Name]
		if !ok && !run.Trace {
			return 0, fmt.Errorf("workload reported no %s", d.Name)
		}
		res.Metrics[d.Name] = metricJSON{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		return 0, fmt.Errorf("no operation attempted")
	}
	// Whatever the run measured beyond the result's metrics goes on the
	// detail line.
	for name, v := range rep.Metrics {
		if _, ok := res.Metrics[name]; !ok {
			rep.Extra[name] = v
		}
	}
	det := detailJSON{
		Workload: run.Workload, Seed: run.Seed, Trace: run.Trace,
		Seconds: run.Duration.Seconds(), Machine: thisMachine(),
		FailFrac: float64(rep.Failed) / float64(rep.Attempted),
		Failures: rep.Failures, Samples: rep.Samples, Extra: rep.Extra,
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(det); err != nil {
		return 0, err
	}
	if err := enc.Encode(res); err != nil {
		return 0, err
	}
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}
