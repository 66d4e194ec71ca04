package core

import (
	"testing"

	gossipalg "repro/internal/algorithms/gossip"
	"repro/internal/algorithms/mis"
	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
)

// TestDecodeTelemetryPinned pins the decode-stage counters, which records
// do not carry, to constants: decoded members delivered, decodes whose
// solo filter skipped at least one position, fallback-decoded message bits,
// beep rounds, the nodes that listened over all windows, and
// symmetric-channel flips. A change to how the decoder finds solo
// positions or draws noise must leave every count unchanged, at any
// Workers setting. The decode constants were generated by the solo-mask
// decoder this test was written against (a per-position counting pass and
// a W-bit solo mask per member). Windows noise only their listeners, the
// nodes not done after collection, so the flip counts follow the listener
// counts: on pg7-mis, where nodes finish one by one, 664 of its 12
// windows × 114 nodes listened.
func TestDecodeTelemetryPinned(t *testing.T) {
	regular, err := graph.RandomRegular(128, 8, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	pg, err := graph.ProjectivePlaneIncidence(7)
	if err != nil {
		t.Fatal(err)
	}
	gossipAlgs := func(g *graph.Graph) []congest.BroadcastAlgorithm { return gossipalg.New(g.N(), 2) }
	misAlgs := func(g *graph.Graph) []congest.BroadcastAlgorithm { return mis.New(g.N()) }
	type counts struct {
		members, soloFiltered, fallbackBits, beepRounds, listeners, flips int64
	}
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		msgBits int
		mut     func(*Params)
		algs    func(*graph.Graph) []congest.BroadcastAlgorithm
		rounds  int
		want    counts
	}{
		{
			name: "regular-gossip", g: regular, msgBits: gossipalg.MsgBits(128),
			mut: func(*Params) {}, algs: gossipAlgs, rounds: 2,
			want: counts{2048, 2048, 0, 62496, 512, 798340},
		},
		{
			name: "pg7-mis", g: pg, msgBits: mis.MsgBits(pg.N()),
			mut: func(*Params) {}, algs: misAlgs, rounds: mis.MaxRounds(pg.N()),
			want: counts{1153, 1100, 0, 428544, 664, 2367704},
		},
		{
			name: "regular-gossip-no-solo-filter", g: regular, msgBits: gossipalg.MsgBits(128),
			mut: func(p *Params) { p.DisableSoloFilter = true }, algs: gossipAlgs, rounds: 2,
			want: counts{2048, 0, 0, 62496, 512, 798340},
		},
		{
			name: "regular-gossip-dense", g: regular, msgBits: gossipalg.MsgBits(128),
			mut: func(p *Params) { p.C, p.R = 2, 3 }, algs: gossipAlgs, rounds: 2,
			want: counts{2050, 2050, 1495, 3024, 512, 38680},
		},
		{
			name: "regular-gossip-random-codebook", g: regular, msgBits: gossipalg.MsgBits(128),
			mut: func(p *Params) { p.Assignment, p.M = AssignRandom, 64 }, algs: gossipAlgs, rounds: 2,
			want: counts{1900, 1900, 0, 62496, 512, 798340},
		},
	} {
		for _, workers := range []int{1, 3} {
			p := DefaultParams(tc.g.N(), tc.g.MaxDegree(), tc.msgBits, 0.1)
			tc.mut(&p)
			reg := obs.NewRegistry()
			r, err := NewBroadcastRunner(tc.g, RunnerConfig{
				Params: p, ChannelSeed: 5, AlgSeed: 6, Workers: workers, Metrics: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Run(tc.algs(tc.g), tc.rounds); err != nil {
				t.Fatal(err)
			}
			got := counts{
				members:      reg.Counter("core.decode.members").Value(),
				soloFiltered: reg.Counter("core.decode.solo_filtered").Value(),
				fallbackBits: reg.Counter("core.decode.fallback_bits").Value(),
				beepRounds:   reg.Counter("beep.rounds").Value(),
				listeners:    reg.Counter("beep.window_listeners").Value(),
				flips:        reg.Counter("noise.flips.symmetric").Value(),
			}
			if got != tc.want {
				t.Errorf("%s, workers %d: counters %+v, want %+v", tc.name, workers, got, tc.want)
			}
		}
	}
}
