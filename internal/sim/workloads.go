package sim

import (
	"reflect"

	"repro/internal/algorithms/bfstree"
	"repro/internal/algorithms/broadcast"
	"repro/internal/algorithms/coloring"
	"repro/internal/algorithms/gossip"
	"repro/internal/algorithms/leader"
	"repro/internal/algorithms/matching"
	"repro/internal/algorithms/mis"
	"repro/internal/beepalgs"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

func init() {
	RegisterWorkload(gossipWorkload{})
	RegisterWorkload(misWorkload{})
	RegisterWorkload(coloringWorkload{})
	RegisterWorkload(leaderWorkload{})
	RegisterWorkload(matchingWorkload{})
	RegisterWorkload(bfstreeWorkload{})
	RegisterWorkload(broadcastWorkload{})
}

// bfsRoot is the fixed BFS source: node 0 exists in every graph, so the
// workload needs no extra scenario parameter.
const bfsRoot = 0

// outputsAs converts a run's per-node outputs to the workload's output
// type T, or reports the first node whose output is not a T.
func outputsAs[T any](workload string, outputs []any) ([]T, error) {
	typed := make([]T, len(outputs))
	for v, o := range outputs {
		t, ok := o.(T)
		if !ok {
			return nil, &OutputTypeError{Workload: workload, Node: v, Want: reflect.TypeFor[T]().String(), Got: o}
		}
		typed[v] = t
	}
	return typed, nil
}

// gossipWorkload: ID broadcast for a configured number of rounds. It is
// a channel probe with no decision problem, so Verify reports
// ErrUnverified and records carry no OutputOK — exactly the historical
// behavior the stored-record byte-identity contract pins.
type gossipWorkload struct{}

func (gossipWorkload) Name() string                          { return WorkloadGossip }
func (gossipWorkload) MsgBits(g *graph.Graph) int            { return gossip.MsgBits(g.N()) }
func (gossipWorkload) UsesRounds() bool                      { return true }
func (gossipWorkload) Budget(g *graph.Graph, rounds int) int { return gossip.Budget(rounds) }

func (gossipWorkload) Algs(g *graph.Graph, rounds int) []congest.BroadcastAlgorithm {
	return gossip.New(g.N(), rounds)
}

func (gossipWorkload) Verify(g *graph.Graph, outputs []any) error { return ErrUnverified }

// misWorkload: Luby's maximal independent set over Broadcast CONGEST,
// with Afek et al.'s protocol as the native beeping implementation.
type misWorkload struct{}

func (misWorkload) Name() string                          { return WorkloadMIS }
func (misWorkload) MsgBits(g *graph.Graph) int            { return mis.MsgBits(g.N()) }
func (misWorkload) UsesRounds() bool                      { return false }
func (misWorkload) Budget(g *graph.Graph, rounds int) int { return mis.MaxRounds(g.N()) }

func (misWorkload) Algs(g *graph.Graph, rounds int) []congest.BroadcastAlgorithm {
	return mis.New(g.N())
}

func (misWorkload) Verify(g *graph.Graph, outputs []any) error {
	set, err := outputsAs[bool](WorkloadMIS, outputs)
	if err != nil {
		return err
	}
	return mis.Verify(g, set)
}

func (misWorkload) RunBeep(g *graph.Graph, seed uint64, metrics *obs.Registry) (*core.Result, error) {
	set, rounds, err := beepalgs.RunMIS(g, seed, metrics)
	if err != nil {
		return nil, err
	}
	return &core.Result{BeepRounds: rounds, AllDone: true, Verdict: mis.Verify(g, set)}, nil
}

// coloringWorkload: randomized (Δ+1)-coloring.
type coloringWorkload struct{}

func (coloringWorkload) Name() string               { return WorkloadColoring }
func (coloringWorkload) MsgBits(g *graph.Graph) int { return coloring.MsgBits(g.N(), g.MaxDegree()) }
func (coloringWorkload) UsesRounds() bool           { return false }

func (coloringWorkload) Budget(g *graph.Graph, rounds int) int { return coloring.MaxRounds(g.N()) }

func (coloringWorkload) Algs(g *graph.Graph, rounds int) []congest.BroadcastAlgorithm {
	return coloring.New(g.N())
}

func (coloringWorkload) Verify(g *graph.Graph, outputs []any) error {
	colors, err := outputsAs[int](WorkloadColoring, outputs)
	if err != nil {
		return err
	}
	return coloring.Verify(g, colors)
}

// leaderWorkload: max-ID leader election by flooding, with the
// conservative diameter bound n (leader.Algorithm's own default).
type leaderWorkload struct{}

func (leaderWorkload) Name() string               { return WorkloadLeader }
func (leaderWorkload) MsgBits(g *graph.Graph) int { return leader.MsgBits(g.N()) }
func (leaderWorkload) UsesRounds() bool           { return false }

func (leaderWorkload) Budget(g *graph.Graph, rounds int) int { return g.N() + 1 }

func (leaderWorkload) Algs(g *graph.Graph, rounds int) []congest.BroadcastAlgorithm {
	return leader.New(g.N(), g.N())
}

func (leaderWorkload) Verify(g *graph.Graph, outputs []any) error {
	res, err := outputsAs[leader.Result](WorkloadLeader, outputs)
	if err != nil {
		return err
	}
	return leader.Verify(g, res)
}

// matchingWorkload: the paper's §6 maximal matching (Algorithm 3).
type matchingWorkload struct{}

func (matchingWorkload) Name() string               { return WorkloadMatching }
func (matchingWorkload) MsgBits(g *graph.Graph) int { return matching.MsgBits(g.N()) }
func (matchingWorkload) UsesRounds() bool           { return false }

func (matchingWorkload) Budget(g *graph.Graph, rounds int) int { return matching.MaxRounds(g.N()) }

func (matchingWorkload) Algs(g *graph.Graph, rounds int) []congest.BroadcastAlgorithm {
	return matching.New(g.N())
}

func (matchingWorkload) Verify(g *graph.Graph, outputs []any) error {
	partners, err := outputsAs[int](WorkloadMatching, outputs)
	if err != nil {
		return err
	}
	return matching.Verify(g, partners)
}

// bfstreeWorkload: BFS tree from node 0.
type bfstreeWorkload struct{}

func (bfstreeWorkload) Name() string               { return WorkloadBFSTree }
func (bfstreeWorkload) MsgBits(g *graph.Graph) int { return bfstree.MsgBits(g.N()) }
func (bfstreeWorkload) UsesRounds() bool           { return false }

func (bfstreeWorkload) Budget(g *graph.Graph, rounds int) int { return g.N() + 1 }

func (bfstreeWorkload) Algs(g *graph.Graph, rounds int) []congest.BroadcastAlgorithm {
	return bfstree.New(g.N(), bfsRoot)
}

func (bfstreeWorkload) Verify(g *graph.Graph, outputs []any) error {
	res, err := outputsAs[bfstree.Result](WorkloadBFSTree, outputs)
	if err != nil {
		return err
	}
	return bfstree.Verify(g, bfsRoot, res)
}

// broadcastWorkload: single-source payload flooding from node 0 — the
// §1.2 broadcast primitive. The CONGEST side floods the canonical payload
// for n rounds; the native beeping side runs the O(D + b) wave protocol
// through the sparse active-set driver, which is what makes the workload
// usable in the million-node regime.
type broadcastWorkload struct{}

func (broadcastWorkload) Name() string               { return WorkloadBroadcast }
func (broadcastWorkload) MsgBits(g *graph.Graph) int { return broadcast.MsgBits(g.N()) }
func (broadcastWorkload) UsesRounds() bool           { return false }

func (broadcastWorkload) Budget(g *graph.Graph, rounds int) int { return g.N() + 1 }

func (broadcastWorkload) Algs(g *graph.Graph, rounds int) []congest.BroadcastAlgorithm {
	return broadcast.New(g.N(), bfsRoot, g.N())
}

func (broadcastWorkload) Verify(g *graph.Graph, outputs []any) error {
	for v, o := range outputs {
		if _, ok := o.([]byte); !ok {
			return &OutputTypeError{Workload: WorkloadBroadcast, Node: v, Want: "[]byte", Got: o}
		}
	}
	return broadcast.Verify(g, bfsRoot, len(outputs), func(v int) []byte { return outputs[v].([]byte) })
}

func (broadcastWorkload) RunBeep(g *graph.Graph, seed uint64, metrics *obs.Registry) (*core.Result, error) {
	n := g.N()
	wave, err := beepalgs.RunWave(g, bfsRoot, broadcast.Payload(n), broadcast.PayloadBits(n), 0, seed,
		beepalgs.WaveOptions{EarlyStop: true, Sparse: true, Metrics: metrics})
	if err != nil {
		return nil, err
	}
	verdict := broadcast.Verify(g, bfsRoot, n, wave.Payload)
	return &core.Result{BeepRounds: wave.Rounds, AllDone: wave.AllDone, Verdict: verdict}, nil
}
