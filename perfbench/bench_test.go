package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"ltsp"
	"ltsp/internal/ir"
	"ltsp/internal/wire"
)

func encodeCorpus(t *testing.T, corpus []*Item) [][]byte {
	t.Helper()
	var out [][]byte
	for _, it := range corpus {
		data, err := ir.EncodeLoop(it.Gen())
		if err != nil {
			t.Fatalf("%s: %v", it.Name, err)
		}
		out = append(out, append([]byte(it.Name+"\n"), data...))
	}
	return out
}

func TestCorpusDeterministic(t *testing.T) {
	a, b := encodeCorpus(t, BuildCorpus(7)), encodeCorpus(t, BuildCorpus(7))
	if len(a) != len(b) {
		t.Fatalf("corpus sizes %d and %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("item %d differs between two builds of one seed", i)
		}
	}
	c := encodeCorpus(t, BuildCorpus(8))
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = bytes.Equal(a[i], c[i])
	}
	if same {
		t.Fatal("seeds 7 and 8 built the same corpus")
	}
}

func TestScheduleDeterministic(t *testing.T) {
	corpus := BuildCorpus(3)
	hot, err := HotKeys(corpus)
	if err != nil {
		t.Fatal(err)
	}
	build := func() ([]time.Duration, Reqs) {
		due, reqs, err := Schedule(3, 1, 300, 2*time.Second, corpus, hot)
		if err != nil {
			t.Fatal(err)
		}
		return due, reqs
	}
	dueA, reqsA := build()
	dueB, reqsB := build()
	if len(dueA) != len(dueB) || len(dueA) < 400 {
		t.Fatalf("schedules of %d and %d requests", len(dueA), len(dueB))
	}
	classes := map[int]int{}
	for i := range dueA {
		if dueA[i] != dueB[i] || reqsA[i].Path != reqsB[i].Path || reqsA[i].Bin != reqsB[i].Bin ||
			!bytes.Equal(reqsA[i].Body, reqsB[i].Body) {
			t.Fatalf("request %d differs between two schedules of one seed", i)
		}
		classes[reqsA[i].Class]++
	}
	for c := 0; c < numClasses; c++ {
		if classes[c] == 0 {
			t.Errorf("no %s request in %d", classNames[c], len(dueA))
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	mk := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	if _, err := Percentile(mk(999), 99); err == nil {
		t.Error("p99 of 999 samples, 9 beyond it, accepted")
	}
	v, err := Percentile(mk(1000), 99)
	if err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with 10 beyond it", v, err)
	}
	if _, err := Percentile(mk(20), 50); err != nil {
		t.Errorf("p50 of 20 samples refused: %v", err)
	}
	if _, err := Percentile(mk(19), 50); err == nil {
		t.Error("p50 of 19 samples, 9 beyond it, accepted")
	}
}

func TestOpenLoopChargesConnectionWait(t *testing.T) {
	const n = 100
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	service := 5 * time.Millisecond
	ts := OpenLoop(context.Background(), due, 1, func(_, _ int) error {
		time.Sleep(service)
		return nil
	})
	// One connection serving a request every 5 ms while they arrive every
	// 1 ms: request i waits for the i requests before it.
	for i, tm := range ts {
		want := time.Duration(i+1)*service - due[i]
		if tm.Latency < want {
			t.Errorf("request %d: latency %v, want at least %v", i, tm.Latency, want)
		}
		if tm.Start < due[i] {
			t.Errorf("request %d sent at %v, before it was due at %v", i, tm.Start, due[i])
		}
	}
	if !BacklogGrows(ts) {
		t.Error("backlog of an overloaded connection not reported as growing")
	}
}

func TestBacklogSteadyUnderLightLoad(t *testing.T) {
	ts := make([]Timing, 100)
	for i := range ts {
		d := time.Duration(i) * 10 * time.Millisecond
		ts[i] = Timing{Due: d, Start: d, Latency: time.Millisecond}
	}
	if BacklogGrows(ts) {
		t.Error("backlog reported as growing when every request started on time")
	}
}

func TestReplayMatchesCompile(t *testing.T) {
	corpus := BuildCorpus(5)
	var picked []*Item
	kinds := map[string]int{}
	for _, it := range corpus {
		if kinds[it.Kind] < 2 {
			kinds[it.Kind]++
			picked = append(picked, it)
		}
	}
	var ps PhaseStats
	for _, it := range picked {
		for _, cfg := range Configs {
			want, err := ltsp.Compile(it.Gen(), it.Options(cfg))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Replay(context.Background(), it, cfg, &ps, func() uint64 { return 0 })
			if err != nil {
				t.Fatal(err)
			}
			if err := sameArtifact(got.II, got.Stages, got.Outcome, got.Program, want, true); err != nil {
				t.Errorf("%s/%s: %v", it.Name, cfg.Name, err)
			}
		}
	}
	m := map[string]float64{}
	ps.Metrics(m)
	if m["modsched.placements"] <= 0 || m["ddg.edges"] <= 0 {
		t.Errorf("replay counted no work: %v", m)
	}
}

func TestSelfTime(t *testing.T) {
	root := wire.SpanJSON{ID: "r", Start: 0, DurNs: 100}
	spans := []wire.SpanJSON{
		root,
		{ID: "a", Parent: "r", Start: 10, DurNs: 20},
		{ID: "b", Parent: "r", Start: 20, DurNs: 30},
		{ID: "c", Parent: "a", Start: 12, DurNs: 80}, // grandchild: ignored
		{ID: "d", Parent: "r", Start: 60, DurNs: 10},
	}
	if got := selfTime(&root, spans); got != 50 {
		t.Errorf("self time %d, want 50", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		if Workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(Workloads) {
		t.Errorf("BENCHMARK.json names workloads %v, program has %d", names, len(Workloads))
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []MetricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, EndToEnd)
	check("per_layer", b.PerLayer, PerLayer)
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); g < 3.999 || g > 4.001 {
		t.Errorf("geomean(2, 8) = %v", g)
	}
	s := Samples{3, 1, 2}
	if s.Median() != 2 || !sort.Float64sAreSorted(s.Sorted()) {
		t.Error("median/sort broken")
	}
	// The low percentile by nearest rank: the 2nd of 20, the 1st of 3.
	var twenty Samples
	for i := 20; i > 0; i-- {
		twenty = append(twenty, float64(i))
	}
	if l := twenty.Low(10); l != 2 {
		t.Errorf("Low(10) of 1..20 = %v, want 2", l)
	}
	// Each loop counts once, at its low-percentile pass, however many
	// cycles it simulates; a loop without a timed run is left out.
	lr := LoopRates{{9, 2, 4}, {8, 8, 50}, nil}
	if g := lr.Geomean(); g < 3.999 || g > 4.001 {
		t.Errorf("LoopRates.Geomean = %v, want 4", g)
	}
}

func TestCrossing(t *testing.T) {
	cases := []struct {
		name string
		vs   []rateVerdict
		want float64
	}{
		{"all meet the limit", []rateVerdict{{100, 5, false}, {110, 8, false}, {120, 12, false}}, 120},
		{"crosses between", []rateVerdict{{100, 10, false}, {110, 30, false}, {120, 40, false}}, 105},
		{"noise pooled", []rateVerdict{{100, 10, false}, {110, 30, false}, {120, 10, false}}, 120},
		{"lowest misses", []rateVerdict{{100, 40, false}, {110, 50, false}, {120, 60, false}}, 50},
		{"growing backlog caps", []rateVerdict{{100, 10, false}, {110, 12, true}, {120, 12, false}}, 100},
	}
	for _, c := range cases {
		if got := crossing(c.vs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
	}
}
