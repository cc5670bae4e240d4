package main

import (
	"fmt"
	"math/rand"

	"ltsp"
	"ltsp/internal/interp"
	"ltsp/internal/ir"
	"ltsp/internal/profile"
	"ltsp/internal/workload"
)

// The seeded parts of the corpus are drawn one item per band, so every
// seed yields the same mix of cheap and expensive compiles and the
// percentiles stay comparable across seeds. The tangle bands put exactly
// three tangles per seed at n >= 21, where the cycle enumeration is cut
// short. Tangles stop at n=26: from n=30 the recurrence analysis takes
// seconds to minutes per compile.
var (
	xorStreamBands = [][2]int{{4, 7}, {8, 10}, {11, 12}}
	regLaneBands   = [][2]int{{8, 15}, {16, 20}, {21, 24}}
	tangleBands    = [][2]int{{8, 13}, {14, 18}, {19, 20}, {21, 23}, {24, 26}, {21, 26}}
)

const (
	heavyElems     = 1 << 12
	heavyLaneIters = 4096 // reference trips × streams or lanes
	tangleNodes    = 64
	tangleArena    = 0x0400_0000
)

// draw returns a seeded value in the inclusive band.
func draw(rng *rand.Rand, band [2]int) int { return band[0] + rng.Intn(band[1]-band[0]+1) }

// Item is one loop of the corpus.
type Item struct {
	Name string
	// Kind is "model", "heavy" or "tangle".
	Kind string
	Gen  func() *ir.Loop
	// InitMem lays out the loop's data in a fresh memory image.
	InitMem func(*interp.Memory)
	// Ref is the reference trip-count distribution the simulator runs.
	Ref profile.Distribution
	// Trip is the PGO trip estimate handed to the compiler.
	Trip float64
	// Cold marks loops measured with caches dropped before every run.
	Cold bool
}

// Config is one compiler configuration of the corpus.
type Config struct {
	Name string
	LT   bool
}

// Configs are the two compiler configurations every item compiles under:
// the paper's baseline and the latency-tolerant pipeliner.
var Configs = []Config{{Name: "base"}, {Name: "lt", LT: true}}

// Options returns the compiler options of item it under cfg.
func (it *Item) Options(cfg Config) ltsp.Options {
	o := ltsp.Options{Mode: ltsp.ModeNone, Prefetch: true, TripEstimate: it.Trip}
	if cfg.LT {
		o.Mode, o.LatencyTolerant = ltsp.ModeHLO, true
	}
	return o
}

// BuildCorpus returns every loop of the 55 workload models followed by
// the seeded heavy archetypes and recurrence tangles. The same seed
// always yields the same corpus.
func BuildCorpus(seed int64) []*Item {
	var items []*Item
	for _, b := range workload.All() {
		for i := range b.Loops {
			spec := &b.Loops[i]
			items = append(items, &Item{
				Name: b.Name + "/" + spec.Name, Kind: "model",
				Gen: spec.Gen, InitMem: spec.InitMem, Ref: spec.Ref,
				Trip: profile.PGO(spec.Train).Avg, Cold: spec.Cold,
			})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	// A heavy loop's reference trip count shrinks with its width, so that
	// every draw from a band simulates about the same work.
	heavy := func(name string, width int, gen func() *ir.Loop, initMem func(*interp.Memory)) {
		trip := int64(heavyLaneIters / width)
		items = append(items, &Item{
			Name: name, Kind: "heavy", Gen: gen, InitMem: initMem,
			Ref: profile.Distribution{{Trip: trip, Count: 4}}, Trip: float64(trip),
		})
	}
	for _, band := range xorStreamBands {
		streams := draw(rng, band)
		gen, initMem := workload.MultiStreamXor(streams, heavyElems)
		heavy(fmt.Sprintf("heavy/xor%d", streams), streams, gen, initMem)
	}
	for _, band := range regLaneBands {
		lanes := draw(rng, band)
		gen, initMem := workload.RegPressureFP(lanes, heavyElems)
		heavy(fmt.Sprintf("heavy/regpressure%d", lanes), lanes, gen, initMem)
	}
	for _, band := range tangleBands {
		n := draw(rng, band)
		items = append(items, &Item{
			Name: fmt.Sprintf("tangle/n%d", n), Kind: "tangle",
			Gen: func() *ir.Loop { return Tangle(n) }, InitMem: initTangle,
			Ref: profile.Distribution{{Trip: 128, Count: 4}}, Trip: 128,
		})
	}
	return items
}

// modelItems returns the corpus items that are loops of the workload
// models.
func modelItems(corpus []*Item) []*Item {
	var out []*Item
	for _, it := range corpus {
		if it.Kind == "model" {
			out = append(out, it)
		}
	}
	return out
}

// Tangle builds the recurrence tangle of size n: n adds
// x_i = x_{i+1} + x_{i+2} (indices mod n), whose carried operands knot
// into a number of elementary cycles that grows exponentially with n,
// followed by a pointer chase ld v=[p]; p=v. It has no live-outs.
func Tangle(n int) *ir.Loop {
	l := ir.NewLoop(fmt.Sprintf("tangle%d", n))
	x := make([]ir.Reg, n)
	for i := range x {
		x[i] = l.NewGR()
		l.Init(x[i], int64(i+1))
	}
	for i := 0; i < n; i++ {
		l.Append(ir.Add(x[i], x[(i+1)%n], x[(i+2)%n]))
	}
	p, v := l.NewGR(), l.NewGR()
	l.Init(p, tangleArena)
	ld := ir.Ld(v, p, 8, 0)
	ld.Mem.Stride = ir.StridePointerChase
	ld.Comment = "v = *p"
	l.Append(ld)
	l.Append(ir.Mov(p, v))
	return l
}

// initTangle lays out the ring the tangle's pointer chase walks.
func initTangle(m *interp.Memory) {
	for i := int64(0); i < tangleNodes; i++ {
		m.Store(tangleArena+64*i, 8, tangleArena+64*((i+1)%tangleNodes))
	}
}
