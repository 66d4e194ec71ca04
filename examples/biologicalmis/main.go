// Biological MIS: the fly's sensory-organ selection problem (Afek et al.,
// cited in the paper's introduction) — cells must elect a sparse set of
// "leaders" such that every cell either is one or touches one, using only
// primitive all-or-nothing signalling.
//
// Here the classic Luby MIS algorithm, written once against the Broadcast
// CONGEST interface, runs in three settings on the same cell-contact
// topology:
//
//   - natively (idealized message passing),
//   - over noiseless beeps,
//   - over noisy beeps (ε = 0.15),
//
// producing a valid maximal independent set in all three — the "existing
// algorithms applied out-of-the-box to networks of weak devices" promise
// of the paper.
//
// Run with: go run ./examples/biologicalmis
package main

import (
	"fmt"
	"log"

	"repro/internal/algorithms/mis"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

func main() {
	const (
		n      = 40
		maxDeg = 6
	)
	g := graph.RandomBoundedDegree(n, maxDeg, 0.12, rng.New(21))
	fmt.Printf("cell-contact graph: %d cells, %d contacts, Δ=%d\n\n", g.N(), g.M(), g.MaxDegree())

	native := runNative(g)
	report("native Broadcast CONGEST", g, native, 0)

	for _, eps := range []float64{0, 0.15} {
		inMIS, beepRounds := runOverBeeps(g, eps)
		report(fmt.Sprintf("beeping model (ε=%.2f)", eps), g, inMIS, beepRounds)
	}
}

func runNative(g *graph.Graph) []bool {
	eng, err := congest.NewBroadcastEngine(g, mis.MsgBits(g.N()), 3)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Run(mis.New(g.N()), mis.MaxRounds(g.N()))
	if err != nil {
		log.Fatal(err)
	}
	if !res.AllDone {
		log.Fatal("native MIS did not terminate")
	}
	return toBools(res.Outputs)
}

func runOverBeeps(g *graph.Graph, eps float64) ([]bool, int) {
	runner, err := core.NewBroadcastRunner(g, core.RunnerConfig{
		Params:      core.DefaultParams(g.N(), g.MaxDegree(), mis.MsgBits(g.N()), eps),
		ChannelSeed: 8,
		AlgSeed:     9,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := runner.Run(mis.New(g.N()), mis.MaxRounds(g.N()))
	if err != nil {
		log.Fatal(err)
	}
	if !res.AllDone {
		log.Fatal("beep-level MIS did not terminate")
	}
	return toBools(res.Outputs), res.BeepRounds
}

func report(label string, g *graph.Graph, inMIS []bool, beepRounds int) {
	if err := mis.Verify(g, inMIS); err != nil {
		log.Fatalf("%s: invalid MIS: %v", label, err)
	}
	size := 0
	for _, in := range inMIS {
		if in {
			size++
		}
	}
	if beepRounds > 0 {
		fmt.Printf("%-28s %d leaders, valid ✓ (%d beep rounds)\n", label+":", size, beepRounds)
	} else {
		fmt.Printf("%-28s %d leaders, valid ✓\n", label+":", size)
	}
}

func toBools(outs []any) []bool {
	res := make([]bool, len(outs))
	for i, o := range outs {
		res[i] = o.(bool)
	}
	return res
}
