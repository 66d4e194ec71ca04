// Command beepsim runs a single scenario: a chosen algorithm on a chosen
// topology, either natively in Broadcast CONGEST or simulated over the
// noisy beeping model with Algorithm 1, and reports rounds, beeps, and
// verification. Algorithms are resolved through the internal/sim
// workload registry, so beepsim runs exactly the workload set the sweep
// subsystem runs (gossip, mis, coloring, leader, matching, bfstree).
//
// Usage examples:
//
//	beepsim -graph regular -n 64 -delta 8 -alg matching -eps 0.1
//	beepsim -graph grid -n 36 -alg bfstree -model native
//	beepsim -graph pg -q 5 -alg mis -eps 0.05 -seed 7
//	beepsim -graph regular -n 10000 -delta 16 -alg mis -workers 0
//	beepsim -graph regular -n 32 -delta 4 -alg leader -noise adversary:solo:128
//	beepsim -graph geo -n 1000000 -alg broadcast -model beepnative
//
// -model beepnative selects the noiseless native beeping engine for
// workloads with a native implementation (mis, broadcast) — the
// million-node path: sparse active-set execution over streaming sharded
// generation (DESIGN.md §2.17).
//
// -noise selects a channel model by spec; hostile channels (budgeted
// adversary strategies, duty-cycle jamming) ride the same axis as the
// stochastic ones, and an overwhelmed protocol reports its failed
// verification rather than hanging (the round budget stays finite).
//
// -workers parallelizes the per-round simulation phases on the
// deterministic sharded pool of internal/engine (1 = serial, 0 = one
// worker per CPU); results are bit-identical for every setting, so the
// flag is purely a throughput knob.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/congest"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/noise"
	"repro/internal/rng"
	"repro/internal/sim"
)

func main() {
	var (
		graphKind = flag.String("graph", "regular", "topology: regular|bounded|grid|cycle|complete|pg|hard|geo")
		n         = flag.Int("n", 64, "number of nodes (regular/bounded/cycle/complete/hard)")
		delta     = flag.Int("delta", 8, "degree bound Δ")
		q         = flag.Int("q", 5, "projective plane order (graph=pg)")
		algName   = flag.String("alg", "matching", "algorithm: "+strings.Join(sim.WorkloadNames(), "|"))
		model     = flag.String("model", "beep", "execution model: native|beep|beepnative (noiseless native beeping algorithms: mis, broadcast)")
		eps       = flag.Float64("eps", 0.1, "channel noise ε (beep model, symmetric channel)")
		noiseSpec = flag.String("noise", "", "channel-noise model spec ("+strings.Join(noise.Names(), ", ")+"); empty = symmetric ε channel, e.g. gilbert-elliott:0.01:0.3:0.05:0.25 or adversary:solo:128")
		rounds    = flag.Int("rounds", 3, "round count for rounds-parameterized algorithms (gossip)")
		seed      = flag.Uint64("seed", 1, "seed")
		workers   = flag.Int("workers", 1, "simulation workers: 1 = serial, 0 = one per CPU (-model beepnative always runs serially)")
	)
	flag.Parse()
	w := *workers
	if w == 0 {
		w = engine.AutoWorkers
	}
	if err := run(*graphKind, *n, *delta, *q, *algName, *model, *eps, *noiseSpec, *rounds, *seed, w); err != nil {
		fmt.Fprintln(os.Stderr, "beepsim:", err)
		os.Exit(1)
	}
}

func buildGraph(kind string, n, delta, q int, seed uint64) (*graph.Graph, error) {
	switch kind {
	case "regular":
		if n*delta%2 != 0 {
			return graph.RandomBoundedDegree(n, delta, 0.5, rng.New(seed)), nil
		}
		return graph.RandomRegular(n, delta, rng.New(seed))
	case "bounded":
		return graph.RandomBoundedDegree(n, delta, 0.2, rng.New(seed)), nil
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return graph.Grid(side, side), nil
	case "cycle":
		return graph.Cycle(n), nil
	case "complete":
		return graph.Complete(n), nil
	case "pg":
		return graph.ProjectivePlaneIncidence(q)
	case "hard":
		return graph.HardInstance(n, delta)
	case "geo":
		return graph.GeometricCells(n, seed, graph.BuildOptions{Workers: engine.AutoWorkers})
	default:
		return nil, fmt.Errorf("unknown graph kind %q", kind)
	}
}

// engineName maps the -model flag to a registered engine.
func engineName(model string) (string, error) {
	switch model {
	case "native":
		return sim.EngineCongest, nil
	case "beep":
		return sim.EngineAlg1, nil
	case "beepnative":
		return sim.EngineBeep, nil
	default:
		return "", fmt.Errorf("unknown model %q", model)
	}
}

func run(graphKind string, n, delta, q int, algName, model string, eps float64, noiseSpec string, rounds int, seed uint64, workers int) error {
	g, err := buildGraph(graphKind, n, delta, q, seed)
	if err != nil {
		return err
	}
	wl, ok := sim.WorkloadFor(algName)
	if !ok {
		return fmt.Errorf("unknown algorithm %q (have %s)", algName, strings.Join(sim.WorkloadNames(), ", "))
	}
	en, err := engineName(model)
	if err != nil {
		return err
	}
	eng, _ := sim.EngineFor(en)
	chanLabel := fmt.Sprintf("symmetric ε=%.2f", eps)
	if noiseSpec == noise.NameSymmetric {
		noiseSpec = "" // bare "symmetric" = the -eps channel, as in cmd/sweep
	}
	if noiseSpec != "" {
		m, err := noise.Parse(noiseSpec)
		if err != nil {
			return err
		}
		if m.Name() == noise.NameSymmetric {
			// One canonical spelling: the symmetric channel is -eps.
			eps = m.(noise.Symmetric).Eps
			noiseSpec = ""
			chanLabel = fmt.Sprintf("symmetric ε=%.2f", eps)
		} else {
			noiseSpec = m.Spec()
			eps = 0 // the model owns the channel
			chanLabel = noiseSpec
		}
		if !sim.SupportsNoise(en, noiseSpec) {
			return fmt.Errorf("engine %q does not support channel model %q", en, noiseSpec)
		}
	}
	if !wl.UsesRounds() {
		rounds = 0
	}
	msgBits, budget := wl.MsgBits(g), wl.Budget(g, rounds)
	fmt.Printf("graph: %s  n=%d  m=%d  Δ=%d\n", graphKind, g.N(), g.M(), g.MaxDegree())
	fmt.Printf("algorithm: %s  bandwidth=%d bits  budget=%d rounds\n", wl.Name(), msgBits, budget)

	inst, err := eng.Prepare(g, sim.Config{
		MsgBits:     msgBits,
		Epsilon:     eps,
		Noise:       noiseSpec,
		ChannelSeed: seed,
		AlgSeeds:    []uint64{seed},
		Workers:     workers,
		Workload:    wl,
		Rounds:      rounds,
	})
	if err != nil {
		return err
	}
	var algs [][]congest.BroadcastAlgorithm
	if eng.DrivesAlgs() {
		algs = [][]congest.BroadcastAlgorithm{wl.Algs(g, rounds)}
	}
	results, lanes, err := inst.Run(algs, budget)
	if err != nil {
		return err
	}
	res, extras := results[0], lanes[0]
	switch model {
	case "native":
		fmt.Printf("native Broadcast CONGEST: %d rounds, %d messages, done=%v\n",
			res.SimRounds, extras[sim.ExtraMessages], res.AllDone)
	case "beepnative":
		fmt.Printf("native beeping algorithm (noiseless): %d beep rounds, done=%v\n",
			res.BeepRounds, res.AllDone)
	case "beep":
		perRound := 0
		if res.SimRounds > 0 {
			perRound = res.BeepRounds / res.SimRounds
		}
		fmt.Printf("noisy beeping model (%s): %d simulated rounds, %d beep rounds (%d per round), %d beeps\n",
			chanLabel, res.SimRounds, res.BeepRounds, perRound, res.Beeps)
		fmt.Printf("decode errors: %d message, %d membership (node·rounds)\n",
			res.MessageErrors, res.MembershipErrors)
	}
	if !res.AllDone {
		return errors.New("algorithm did not terminate in budget")
	}
	verr := sim.Verdict(eng, wl, g, res)
	switch {
	case errors.Is(verr, sim.ErrUnverified):
		fmt.Println("verification: n/a (workload defines no output-validity notion)")
	case verr != nil:
		return fmt.Errorf("verification FAILED: %w", verr)
	default:
		fmt.Println("verification: OK")
	}
	return nil
}
