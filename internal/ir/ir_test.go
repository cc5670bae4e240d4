package ir

import (
	"strings"
	"testing"
)

func TestRegString(t *testing.T) {
	tests := []struct {
		r    Reg
		want string
	}{
		{GR(32), "r32"},
		{FR(2), "f2"},
		{PR(16), "p16"},
		{VGR(7), "vr7"},
		{VFR(0), "vf0"},
		{VPR(3), "vp3"},
		{None, "-"},
	}
	for _, tt := range tests {
		if got := tt.r.String(); got != tt.want {
			t.Errorf("%#v.String() = %q, want %q", tt.r, got, tt.want)
		}
	}
}

func TestRegIsNone(t *testing.T) {
	if !None.IsNone() {
		t.Error("None.IsNone() = false")
	}
	if GR(0).IsNone() {
		t.Error("GR(0).IsNone() = true")
	}
}

func TestOpClassification(t *testing.T) {
	tests := []struct {
		op                             Op
		load, store, mem, branch, isFP bool
	}{
		{OpLd, true, false, true, false, false},
		{OpLdF, true, false, true, false, false}, // FP load executes on M port
		{OpSt, false, true, true, false, false},
		{OpStF, false, true, true, false, false},
		{OpLfetch, false, false, true, false, false},
		{OpBrCtop, false, false, false, true, false},
		{OpBrCloop, false, false, false, true, false},
		{OpAdd, false, false, false, false, false},
		{OpFMA, false, false, false, false, true},
		{OpMul, false, false, false, false, true}, // integer multiply is FP-unit work
		{OpSetF, false, false, false, false, true},
	}
	for _, tt := range tests {
		if got := tt.op.IsLoad(); got != tt.load {
			t.Errorf("%v.IsLoad() = %v", tt.op, got)
		}
		if got := tt.op.IsStore(); got != tt.store {
			t.Errorf("%v.IsStore() = %v", tt.op, got)
		}
		if got := tt.op.IsMem(); got != tt.mem {
			t.Errorf("%v.IsMem() = %v", tt.op, got)
		}
		if got := tt.op.IsBranch(); got != tt.branch {
			t.Errorf("%v.IsBranch() = %v", tt.op, got)
		}
		if got := tt.op.IsFP(); got != tt.isFP {
			t.Errorf("%v.IsFP() = %v", tt.op, got)
		}
	}
}

func TestHintAndStrideStrings(t *testing.T) {
	if HintL2.String() != "L2" || HintL3.String() != "L3" || HintNone.String() != "none" {
		t.Error("hint names wrong")
	}
	for _, s := range []StrideKind{StrideUnknown, StrideUnit, StrideConst,
		StrideSymbolic, StrideIndirect, StridePointerChase, StrideInvariant} {
		if s.String() == "" {
			t.Errorf("stride %d has empty name", s)
		}
	}
}

func TestInstrUsesAndDefs(t *testing.T) {
	base, dst, val := VGR(0), VGR(1), VGR(2)
	ld := Ld(dst, base, 4, 8)
	defs := ld.AppendDefs(nil)
	if len(defs) != 2 || defs[0] != dst || defs[1] != base {
		t.Errorf("load defs = %v, want [dst base]", defs)
	}
	uses := ld.AppendUses(nil)
	if len(uses) != 1 || uses[0] != base {
		t.Errorf("load uses = %v, want [base]", uses)
	}
	if ld.BaseReg() != base {
		t.Errorf("BaseReg = %v", ld.BaseReg())
	}

	st := St(base, val, 4, 0)
	if d := st.AppendDefs(nil); len(d) != 0 {
		t.Errorf("store without post-inc defines %v", d)
	}
	if st.BaseReg() != base {
		t.Errorf("store base = %v", st.BaseReg())
	}

	p := VPR(0)
	add := Predicated(p, Add(dst, base, val))
	uses = add.AppendUses(nil)
	if len(uses) != 3 || uses[2] != p {
		t.Errorf("predicated add uses = %v, want predicate included", uses)
	}

	if r := Add(dst, base, val).BaseReg(); !r.IsNone() {
		t.Errorf("non-memory BaseReg = %v, want None", r)
	}

	// A reused buffer keeps its prefix and makes the scan allocation-free.
	buf := make([]Reg, 0, 8)
	if n := testing.AllocsPerRun(100, func() { buf = ld.AppendUses(ld.AppendDefs(buf[:0])) }); n != 0 {
		t.Errorf("AppendDefs/AppendUses into a reused buffer allocate %v times", n)
	}
	if len(buf) != 3 || buf[0] != dst || buf[1] != base || buf[2] != base {
		t.Errorf("load defs then uses = %v, want [dst base base]", buf)
	}
}

func TestInstrClone(t *testing.T) {
	ld := Ld(VGR(0), VGR(1), 4, 4)
	ld.Mem.Hint = HintL3
	c := ld.Clone()
	c.Dsts[0] = VGR(9)
	c.Mem.Hint = HintL2
	if ld.Dsts[0] != VGR(0) {
		t.Error("clone aliases Dsts")
	}
	if ld.Mem.Hint != HintL3 {
		t.Error("clone aliases Mem")
	}
}

func TestInstrString(t *testing.T) {
	tests := []struct {
		in   *Instr
		want string
	}{
		{Ld(VGR(0), VGR(1), 4, 4), "ld4 vr0 = [vr1],4"},
		{St(VGR(1), VGR(0), 8, 0), "st8 [vr1] = vr0"},
		{Add(VGR(2), VGR(0), VGR(1)), "add vr2 = vr0, vr1"},
		{MovI(VGR(0), 42), "movi vr0 =, 42"},
		{Lfetch(VGR(0), 8, HintNone), "lfetch [vr0],8"},
		{Predicated(PR(16), Add(GR(33), GR(32), GR(4))), "(p16) add r33 = r32, r4"},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestLoopBuilder(t *testing.T) {
	l := NewLoop("t")
	a, b := l.NewGR(), l.NewGR()
	f := l.NewFR()
	p := l.NewPR()
	if a == b {
		t.Error("NewGR returned duplicate registers")
	}
	if a.Class != ClassGR || f.Class != ClassFR || p.Class != ClassPR {
		t.Error("register classes wrong")
	}
	if !a.Virtual {
		t.Error("builder registers must be virtual")
	}
	in := l.Append(Add(b, a, a))
	if in.ID != 0 || len(l.Body) != 1 {
		t.Error("Append did not record instruction")
	}
	l.Init(a, 7)
	if v, ok := l.InitValue(a); !ok || v != 7 {
		t.Error("InitValue lost the setup")
	}
	if _, ok := l.InitValue(b); ok {
		t.Error("InitValue invented a setup")
	}
	e, ok := l.InitEntry(a)
	if !ok || e.Val != 7 {
		t.Error("InitEntry wrong")
	}
}

func TestLoopLoadsAndMemRefs(t *testing.T) {
	l := NewLoop("t")
	d, b := l.NewGR(), l.NewGR()
	l.Init(b, 0)
	l.Append(Ld(d, b, 4, 4))
	l.Append(Add(l.NewGR(), d, d))
	l.Append(Lfetch(b, 0, HintNone))
	if n := len(l.Loads()); n != 1 {
		t.Errorf("Loads() = %d, want 1", n)
	}
	if n := len(l.MemRefs()); n != 2 {
		t.Errorf("MemRefs() = %d, want 2", n)
	}
}

func TestLoopClone(t *testing.T) {
	l := NewLoop("t")
	d, b := l.NewGR(), l.NewGR()
	l.Init(b, 100)
	l.Append(Ld(d, b, 4, 4))
	l.MemDeps = append(l.MemDeps, MemDep{From: 0, To: 0, Distance: 1})
	c := l.Clone()
	c.Body[0].Mem.Hint = HintL3
	c.Setup[0].Val = 1
	if l.Body[0].Mem.Hint != HintNone || l.Setup[0].Val != 100 {
		t.Error("Clone aliases the original")
	}
	// The clone's register counters continue from the original's.
	r := c.NewGR()
	if r == d || r == b {
		t.Error("clone register counter collides")
	}
}

func TestLoopString(t *testing.T) {
	l := NewLoop("demo")
	d, b := l.NewGR(), l.NewGR()
	l.Init(b, 0)
	l.Append(Ld(d, b, 4, 4))
	s := l.String()
	if !strings.Contains(s, "demo:") || !strings.Contains(s, "ld4") {
		t.Errorf("String() = %q", s)
	}
}
