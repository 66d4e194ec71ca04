// Quickstart: simulate a single Broadcast CONGEST round over a noisy
// beeping network.
//
// Six sensor nodes in a ring each broadcast a 12-bit reading. The
// Algorithm 1 simulator (internal/core) turns that one message-passing
// round into two beep-code phases on a channel that flips every received
// bit with probability ε = 0.1 — and every node still decodes both of its
// neighbors' readings exactly.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/wire"
)

// reading broadcasts a fixed 12-bit sensor value once and records what it
// hears from its neighbors.
type reading struct {
	env      congest.Env
	value    uint64
	received []uint64
	done     bool
}

func (r *reading) Init(env congest.Env) {
	r.env = env
	// A deterministic fake sensor value derived from the node ID.
	r.value = uint64(env.ID*37+100) & 0xfff
}

func (r *reading) Broadcast(round int) congest.Message {
	var w wire.Writer
	w.WriteUint(r.value, 12)
	return w.PaddedBytes(r.env.MsgBits)
}

func (r *reading) Receive(round int, msgs []congest.Message) {
	for _, m := range msgs {
		v, err := wire.NewReader(m).ReadUint(12)
		if err != nil {
			panic(err)
		}
		r.received = append(r.received, v)
	}
	r.done = true
}

func (r *reading) Done() bool { return r.done }

// Output returns the received readings sorted numerically (delivery is an
// unordered multiset).
func (r *reading) Output() any {
	sort.Slice(r.received, func(i, j int) bool { return r.received[i] < r.received[j] })
	return r.received
}

func main() {
	const n, eps = 6, 0.1
	g := graph.Cycle(n)

	params := core.DefaultParams(n, g.MaxDegree(), 12, eps)
	runner, err := core.NewBroadcastRunner(g, core.RunnerConfig{
		Params:      params,
		ChannelSeed: 42,
		AlgSeed:     7,
	})
	if err != nil {
		log.Fatal(err)
	}

	algs := make([]congest.BroadcastAlgorithm, n)
	for v := range algs {
		algs[v] = &reading{}
	}
	res, err := runner.Run(algs, 3)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("simulated %d Broadcast CONGEST round(s) in %d noisy beep rounds (ε=%.2f)\n",
		res.SimRounds, res.BeepRounds, eps)
	fmt.Printf("phase length: %d beeps per phase, 2 phases per round\n", params.PhaseLength())
	fmt.Printf("decode errors: %d\n\n", res.MessageErrors)
	for v := 0; v < n; v++ {
		// Delivery is an unordered multiset (canonically sorted), so sort
		// the expected values the same way for display.
		a := uint64(((v+n-1)%n)*37+100) & 0xfff
		b := uint64(((v+1)%n)*37+100) & 0xfff
		if a > b {
			a, b = b, a
		}
		fmt.Printf("node %d decoded neighbor readings %v (true values [%d %d])\n",
			v, res.Outputs[v], a, b)
	}
}
