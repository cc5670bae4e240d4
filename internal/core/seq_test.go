package core

import (
	"testing"

	"ltsp/internal/interp"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
)

func TestGenSequentialRunningExample(t *testing.T) {
	// Fig. 1: under base latencies the source loop takes three cycles
	// (ld ; add ; st with two stops).
	l, _, _ := exampleLoop(ir.HintNone)
	p, err := GenSequential(machine.Itanium2(), l)
	if err != nil {
		t.Fatal(err)
	}
	if p.Pipelined {
		t.Error("sequential program marked pipelined")
	}
	if len(p.Groups) != 3 {
		t.Errorf("schedule length = %d cycles, want 3 (paper Fig. 1)", len(p.Groups))
	}
}

func TestGenSequentialRAWSpacing(t *testing.T) {
	// A 4-cycle FP producer must be 4 cycles from its consumer.
	l := ir.NewLoop("fp")
	a, b, c := l.NewFR(), l.NewFR(), l.NewFR()
	l.InitF(a, 1)
	l.Append(ir.FMul(b, a, a))
	l.Append(ir.FAdd(c, b, a))
	p, err := GenSequential(machine.Itanium2(), l)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Groups) != 5 {
		t.Errorf("schedule length = %d, want 5 (fmul at 0, fadd at 4)", len(p.Groups))
	}
	if len(p.Groups[0]) != 1 || len(p.Groups[4]) != 1 {
		t.Error("producers/consumers misplaced")
	}
}

func TestGenSequentialWAROrdering(t *testing.T) {
	// A use of a loop-carried value must not be scheduled after this
	// iteration's redefinition writes over it.
	l := ir.NewLoop("war")
	v, w, b := l.NewGR(), l.NewGR(), l.NewGR()
	l.Init(v, 5)
	l.Init(b, 0x1000)
	l.Append(ir.AddI(w, v, 1))  // reads previous v
	l.Append(ir.AddI(v, v, 10)) // in-place update
	l.Append(ir.St(b, w, 8, 8))
	p, err := GenSequential(machine.Itanium2(), l)
	if err != nil {
		t.Fatal(err)
	}
	st, err := interp.Run(p, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Iteration i stores v_i + 1 where v_i = 5 + 10i.
	for i := int64(0); i < 3; i++ {
		want := 5 + 10*i + 1
		if got := st.Mem.Load(0x1000+8*i, 8); got != want {
			t.Errorf("store[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestGenSequentialResourceRows(t *testing.T) {
	// Nine memory ops cannot issue in fewer than three cycles (4 M units).
	l := ir.NewLoop("mem")
	for i := 0; i < 9; i++ {
		b := l.NewGR()
		l.Init(b, int64(0x1000*i+0x100000))
		l.Append(ir.Ld(l.NewGR(), b, 8, 8))
	}
	m := machine.Itanium2()
	p, err := GenSequential(m, l)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Groups) < 3 {
		t.Errorf("schedule length = %d, want >= 3", len(p.Groups))
	}
	for c, g := range p.Groups {
		if len(g) > m.IssueWidth {
			t.Errorf("cycle %d issues %d ops", c, len(g))
		}
		mem := 0
		for _, in := range g {
			if in.Op.IsMem() {
				mem++
			}
		}
		if mem > m.Units[machine.PortM] {
			t.Errorf("cycle %d has %d memory ops", c, mem)
		}
	}
}

func TestGenSequentialRegisterMapping(t *testing.T) {
	l, _, _ := exampleLoop(ir.HintNone)
	p, err := GenSequential(machine.Itanium2(), l)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range p.Instrs() {
		for _, r := range in.AppendUses(in.AppendDefs(nil)) {
			if r.Virtual {
				t.Fatalf("virtual register %v leaked into codegen", r)
			}
		}
	}
	if len(p.Setup) != 3 {
		t.Errorf("setup entries = %d, want 3", len(p.Setup))
	}
	if len(p.LiveOut) != 2 {
		t.Errorf("live-out entries = %d, want 2", len(p.LiveOut))
	}
}

func TestGenSequentialUnreferencedLiveOut(t *testing.T) {
	l, _, _ := exampleLoop(ir.HintNone)
	l.LiveOut = append(l.LiveOut, ir.VGR(77))
	if _, err := GenSequential(machine.Itanium2(), l); err == nil {
		t.Error("live-out of an unreferenced register accepted")
	}
}

func TestGenSequentialMemDepOrdering(t *testing.T) {
	// A same-iteration memory dependence with latency forces separation.
	l := ir.NewLoop("md")
	v, bs, bl := l.NewGR(), l.NewGR(), l.NewGR()
	l.Init(bs, 0x1000)
	l.Init(bl, 0x2000)
	l.Init(v, 9)
	l.Append(ir.St(bs, v, 8, 8))
	l.Append(ir.Ld(l.NewGR(), bl, 8, 8))
	l.MemDeps = []ir.MemDep{{From: 0, To: 1, Distance: 0, Latency: 3}}
	p, err := GenSequential(machine.Itanium2(), l)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Groups) < 4 {
		t.Errorf("schedule length = %d, want >= 4 (store at 0, load at 3)", len(p.Groups))
	}
}
