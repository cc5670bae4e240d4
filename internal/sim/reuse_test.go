package sim

import (
	"testing"

	"ltsp/internal/core"
	"ltsp/internal/interp"
	"ltsp/internal/workload"
)

// compiledWorkloadLoop returns a latency-tolerant pipelined compile of
// the named workload loop with its initialized memory image.
func compiledWorkloadLoop(t *testing.T, bench, loop string) (workload.LoopSpec, *core.Compiled, *interp.Memory) {
	t.Helper()
	for _, b := range workload.All() {
		if b.Name != bench {
			continue
		}
		for _, spec := range b.Loops {
			if spec.Name != loop {
				continue
			}
			c, err := core.Pipeline(spec.Gen(), core.Options{LatencyTolerant: true})
			if err != nil {
				t.Fatalf("%s/%s: %v", bench, loop, err)
			}
			mem := interp.NewMemory()
			spec.InitMem(mem)
			return spec, c, mem
		}
	}
	t.Fatalf("no workload loop %s/%s", bench, loop)
	return workload.LoopSpec{}, nil, nil
}

// TestRunAllocsPerCycle pins the simulator's hot loop as allocation-free:
// on a warm Runner, what a Run allocates is per run (its Result and
// state), so spread over a few thousand simulated cycles it is near zero.
func TestRunAllocsPerCycle(t *testing.T) {
	_, c, mem := compiledWorkloadLoop(t, "429.mcf", "refresh_potential")
	if !c.Program.Pipelined {
		t.Fatalf("%s compiled to a sequential fallback (%s)", c.Program.Name, c.Outcome())
	}
	const trip = 2000
	runner := NewRunner(DefaultConfig())
	if _, err := runner.Run(c.Program, trip, mem); err != nil {
		t.Fatal(err)
	}
	var cycles int64
	allocs := testing.AllocsPerRun(5, func() {
		res, err := runner.Run(c.Program, trip, mem)
		if err != nil {
			t.Fatal(err)
		}
		cycles = res.Cycles
	})
	if cycles < 1000 {
		t.Fatalf("run simulated only %d cycles, want at least 1000", cycles)
	}
	if per := allocs / float64(cycles); per > 0.01 {
		t.Errorf("%.0f allocations per run over %d cycles = %.4f per cycle, want <= 0.01",
			allocs, cycles, per)
	}
}

// TestDropCachesMatchesFreshRunner checks that the in-place reset leaves
// nothing behind: a cold run after DropCaches simulates exactly like the
// first run on a fresh Runner.
func TestDropCachesMatchesFreshRunner(t *testing.T) {
	for _, name := range [][2]string{
		{"429.mcf", "refresh_potential"},
		{"462.libquantum", "toffoli"},
		{"433.milc", "su3"},
	} {
		spec, c, _ := compiledWorkloadLoop(t, name[0], name[1])
		if !spec.Cold {
			t.Fatalf("%s/%s is not a cold loop", name[0], name[1])
		}
		trip := spec.Ref[0].Trip
		run := func(r *Runner) *Result {
			mem := interp.NewMemory()
			spec.InitMem(mem)
			res, err := r.Run(c.Program, trip, mem)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		want := run(NewRunner(DefaultConfig()))

		runner := NewRunner(DefaultConfig())
		run(runner)
		runner.DropCaches()
		got := run(runner)

		if got.Cycles != want.Cycles || got.Acct != want.Acct ||
			got.LoadsByLevel != want.LoadsByLevel || got.Cache != want.Cache {
			t.Errorf("%s/%s: after DropCaches: cycles %d acct %+v loads %v cache %+v; fresh runner: cycles %d acct %+v loads %v cache %+v",
				name[0], name[1], got.Cycles, got.Acct, got.LoadsByLevel, got.Cache,
				want.Cycles, want.Acct, want.LoadsByLevel, want.Cache)
		}
		if total := runner.Hierarchy().Stats.Accesses; total != 2*want.Cache.Accesses {
			t.Errorf("%s/%s: DropCaches lost the hierarchy's statistics: %d accesses over two runs, want %d",
				name[0], name[1], total, 2*want.Cache.Accesses)
		}
	}
}
