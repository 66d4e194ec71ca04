// Sensor network scenario: the weak-device setting the paper's
// introduction motivates.
//
// A field of sensors on a jittered grid (bounded degree, multi-hop) does
// three things, all over beeps:
//
//  1. an alarm flood — the raw beep-wave primitive, one bit, O(D) rounds;
//  2. a noise-robust flood — the same wave surviving ε = 0.15 noise via
//     frame repetition;
//  3. a BFS tree — a real message-passing algorithm (Broadcast CONGEST)
//     run through the Algorithm 1 simulation, giving every sensor a
//     routing parent toward the gateway.
//
// Run with: go run ./examples/sensornet
package main

import (
	"fmt"
	"log"

	"repro/internal/algorithms/bfstree"
	"repro/internal/beep"
	"repro/internal/beepalgs"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

func main() {
	const (
		n      = 49
		maxDeg = 8
	)
	g := graph.RandomGeometricGrid(n, maxDeg, rng.New(6))
	fmt.Printf("sensor field: %d nodes, %d links, Δ=%d, diameter=%d\n\n",
		g.N(), g.M(), g.MaxDegree(), g.Diameter())

	alarmFlood(g)
	robustFlood(g)
	bfsOverBeeps(g)
	configBroadcast(g)
}

// alarmFlood: node 0 raises an alarm; the wave reaches node v in exactly
// dist(0,v) rounds on a noiseless channel.
func alarmFlood(g *graph.Graph) {
	nw, err := beep.NewNetwork(g, beep.Params{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	floods := make([]beep.AlarmFlood, g.N())
	progs := make([]beep.Program, g.N())
	for v := range progs {
		floods[v].Source = v == 0
		progs[v] = &floods[v]
	}
	if _, err := nw.Run(beep.PerNode(progs), g.N()); err != nil {
		log.Fatal(err)
	}
	worst := 0
	for v, d := range g.BFS(0) {
		if got := floods[v].RelayRound(); got != int(d) {
			log.Fatalf("node %d activated at %d, want %d", v, got, d)
		}
		worst = max(worst, int(d))
	}
	fmt.Printf("1) alarm flood (noiseless): all %d sensors reached, farthest in %d rounds (= distance)\n",
		g.N(), worst)
}

// robustFlood: the same wave at ε = 0.15, using frame-majority voting.
func robustFlood(g *graph.Graph) {
	const frame = 32
	nw, err := beep.NewNetwork(g, beep.Params{Epsilon: 0.15, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	floods := make([]beep.RobustFlood, g.N())
	progs := make([]beep.Program, g.N())
	for v := range progs {
		floods[v] = beep.RobustFlood{Source: v == 0, FrameLen: frame}
		progs[v] = &floods[v]
	}
	if _, err := nw.Run(beep.PerNode(progs), frame*(g.Diameter()+8)); err != nil {
		log.Fatal(err)
	}
	reached := 0
	for v := range floods {
		if floods[v].ActivationFrame() >= 0 {
			reached++
		}
	}
	fmt.Printf("2) robust flood (ε=0.15):   %d/%d sensors reached through noise (%d-round frames)\n",
		reached, g.N(), frame)
}

// configBroadcast: the gateway pushes a 16-bit configuration word to every
// sensor with beep waves — O(D + b) rounds, the §1.2 primitive.
func configBroadcast(g *graph.Graph) {
	const config uint16 = 0xbee9
	msg := []byte{byte(config & 0xff), byte(config >> 8)}
	out, rounds, err := beepalgs.RunWaveBroadcast(g, 0, msg, 16, g.Diameter()+1, 9)
	if err != nil {
		log.Fatal(err)
	}
	okCount := 0
	for v := 0; v < g.N(); v++ {
		if len(out[v]) == 2 && out[v][0] == msg[0] && out[v][1] == msg[1] {
			okCount++
		}
	}
	fmt.Printf("4) config broadcast (beep waves): 0x%04x delivered to %d/%d sensors in %d rounds (O(D+b))\n",
		config, okCount, g.N(), rounds)
}

// bfsOverBeeps: a routing tree toward gateway 0 via the full simulation.
func bfsOverBeeps(g *graph.Graph) {
	const eps = 0.1
	runner, err := core.NewBroadcastRunner(g, core.RunnerConfig{
		Params:      core.DefaultParams(g.N(), g.MaxDegree(), bfstree.MsgBits(g.N()), eps),
		ChannelSeed: 3,
		AlgSeed:     4,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := runner.Run(bfstree.New(g.N(), 0), g.Diameter()+2)
	if err != nil {
		log.Fatal(err)
	}
	outs := make([]bfstree.Result, g.N())
	for v, o := range res.Outputs {
		outs[v] = o.(bfstree.Result)
	}
	if err := bfstree.Verify(g, 0, outs); err != nil {
		log.Fatalf("invalid BFS tree: %v", err)
	}
	fmt.Printf("3) BFS routing tree (ε=%.2f): built in %d beep rounds, %d decode errors, verified ✓\n",
		eps, res.BeepRounds, res.MessageErrors)
	byLevel := make(map[int]int)
	for _, r := range outs {
		byLevel[r.Dist]++
	}
	fmt.Print("   sensors per hop level: ")
	for d := 0; ; d++ {
		c, ok := byLevel[d]
		if !ok {
			break
		}
		fmt.Printf("L%d:%d ", d, c)
	}
	fmt.Println()
}
