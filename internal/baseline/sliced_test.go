package baseline

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/noise"
	"repro/internal/rng"
	"repro/internal/wire"
)

// sporadic is the conformance workload: nodes sit out a private number
// of initial rounds and finish after a private number of receptions,
// both drawn from the algorithm stream. Replicates with different
// AlgSeeds therefore desynchronize — some lanes hit zero-sender rounds
// (they must spend no beep rounds while other lanes do), and lanes
// retire from the group at different sim rounds — exactly the lane-skew
// the sliced runner must keep bit-identical.
type sporadic struct {
	env    congest.Env
	quiet  int
	rounds int
	got    [][]uint64
	done   bool
}

func (g *sporadic) Init(env congest.Env) {
	g.env = env
	g.quiet = int(env.Rng.Uint64() % 3)
	g.rounds = 2 + int(env.Rng.Uint64()%3)
	g.got = nil
	g.done = false
}

func (g *sporadic) Broadcast(round int) congest.Message {
	if round < g.quiet {
		return nil
	}
	var w wire.Writer
	w.WriteUint(uint64(g.env.ID), wire.BitsFor(g.env.N))
	return w.PaddedBytes(g.env.MsgBits)
}

func (g *sporadic) Receive(round int, msgs []congest.Message) {
	ids := []uint64{}
	for _, m := range msgs {
		id, err := wire.NewReader(m).ReadUint(wire.BitsFor(g.env.N))
		if err != nil {
			panic(err)
		}
		ids = append(ids, id)
	}
	g.got = append(g.got, ids)
	if len(g.got) >= g.rounds {
		g.done = true
	}
}

func (g *sporadic) Done() bool  { return g.done }
func (g *sporadic) Output() any { return g.got }

// laneSeeds derives distinct per-replicate algorithm seeds, the way a
// sweep grid gives every replicate its own AlgSeed.
func laneSeeds(lanes int) []uint64 {
	out := make([]uint64, lanes)
	for k := range out {
		out[k] = 2000 + 13*uint64(k)
	}
	return out
}

// quietChannel is one noiseless channel of the conformance matrix,
// labeled by the model whose zero-rate form it runs.
type quietChannel struct {
	label string
	noise string
}

// channelOf parses a channel spec of the test tables; the empty spec is
// the nil channel.
func channelOf(spec string) noise.Model {
	if spec == "" {
		return nil
	}
	m, err := noise.Parse(spec)
	if err != nil {
		panic(err)
	}
	return m
}

// quietChannels lists the channels that cannot flip a bit, where the
// runner delivers directly: ε = 0 on the default channel (ρ = 1), every
// stochastic model's zero-rate form, a zero-budget adversary, whose
// worst-case calibration sets ρ = 31, and a zero-duty jammer, a hostile
// model that calibrates to ρ = 1.
func quietChannels() []quietChannel {
	return []quietChannel{
		{label: "noiseless"},
		{label: "symmetric", noise: "symmetric:0"},
		{label: "jam", noise: "jam:0:10"},
		{label: "asymmetric", noise: "asymmetric:0:0"},
		{label: "erasure", noise: "erasure:0:1"},
		{label: "gilbert-elliott", noise: "gilbert-elliott:0:0.3:0:0.2"},
		{label: "adversary", noise: "adversary:solo:0"},
	}
}

// windowRunner builds a one-lane runner that beeps and majority-decodes
// real reception windows even on a quiet channel: the reference direct
// delivery is pinned against.
func windowRunner(t *testing.T, g *graph.Graph, cfg Config, seed uint64) *Runner {
	t.Helper()
	r, err := NewRunner(g, cfg, []uint64{seed})
	if err != nil {
		t.Fatal(err)
	}
	if r.nw == nil {
		if err := r.attachWindows(); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// checkLanes runs one lane per seed through standalone window runners —
// the reference, with a distinct channel seed per lane as a grid's
// replicates have — and as one direct-delivery pass at 1 and 4 workers.
// It fails unless every lane deep-equals its reference, whose energy
// must also match the beeps its network counted, and returns the
// reference results.
func checkLanes(t *testing.T, g *graph.Graph, c quietChannel, seeds []uint64, newAlg func() congest.BroadcastAlgorithm, budget int) []*core.Result {
	t.Helper()
	cfg := Config{MsgBits: 8, Channel: channelOf(c.noise)}
	newAlgs := func() []congest.BroadcastAlgorithm {
		algs := make([]congest.BroadcastAlgorithm, g.N())
		for v := range algs {
			algs[v] = newAlg()
		}
		return algs
	}
	want := make([]*core.Result, len(seeds))
	for k, seed := range seeds {
		kcfg := cfg
		kcfg.ChannelSeed = 1000 + 7*uint64(k)
		r := windowRunner(t, g, kcfg, seed)
		var err error
		if want[k], err = runOne(r, newAlgs(), budget); err != nil {
			t.Fatal(err)
		}
		if want[k].Beeps != r.nw.TotalBeeps() {
			t.Fatalf("lane %d charged %d beeps, its windows carried %d", k, want[k].Beeps, r.nw.TotalBeeps())
		}
	}
	for _, workers := range []int{1, 4} {
		scfg := cfg
		scfg.Workers = workers
		sr, err := NewRunner(g, scfg, seeds)
		if err != nil {
			t.Fatal(err)
		}
		if sr.nw != nil {
			t.Fatalf("channel %q built beep windows; a quiet channel delivers directly", c.noise)
		}
		algs := make([][]congest.BroadcastAlgorithm, len(seeds))
		for k := range algs {
			algs[k] = newAlgs()
		}
		got, err := sr.Run(algs, budget)
		if err != nil {
			t.Fatal(err)
		}
		for k := range got {
			if !reflect.DeepEqual(got[k], want[k]) {
				t.Fatalf("workers=%d lane %d diverges from its window run:\n got %+v\nwant %+v",
					workers, k, got[k], want[k])
			}
		}
	}
	return want
}

// TestSlicedMatchesSerial is the lane conformance suite at the runner
// level: for every noiseless channel × lane count (1, 3, a
// non-power-of-two remainder, a full word), each lane of one
// direct-delivery run must be deep-equal — counters, energy, outputs —
// to a standalone one-lane run over that lane's seed whose majority
// decode reads real reception windows.
func TestSlicedMatchesSerial(t *testing.T) {
	g := graph.RandomBoundedDegree(18, 4, 0.18, rng.New(600))
	for _, c := range quietChannels() {
		for _, lanes := range []int{1, 3, 37, 64} {
			t.Run(fmt.Sprintf("%s/lanes=%d", c.label, lanes), func(t *testing.T) {
				checkLanes(t, g, c, laneSeeds(lanes), func() congest.BroadcastAlgorithm { return &sporadic{} }, 8)
			})
		}
	}
}

// pacer makes lane skew deterministic-by-construction: only node 0
// ever transmits, sitting out a private number of initial rounds, and
// only node 0's finish time varies — so each lane's sim-round count and
// zero-sender schedule hinge on single private draws that differ
// across AlgSeeds.
type pacer struct{ sporadic }

func (p *pacer) Init(env congest.Env) {
	p.sporadic.Init(env)
	if env.ID != 0 {
		p.quiet = 1 << 30 // never broadcasts
		p.rounds = 2
	}
}

// TestSlicedLaneSkew asserts the suite covers genuinely skewed lanes on
// every noiseless channel: across the 64-lane seed set some lane must
// retire before another, and some lane must consume fewer beep rounds
// than the busiest one (zero-sender rounds happened for it alone).
// Without this the conformance matrix could silently degenerate into
// lockstep lanes. checkLanes pins the same workload against serial runs.
func TestSlicedLaneSkew(t *testing.T) {
	g := graph.RandomBoundedDegree(18, 4, 0.18, rng.New(600))
	for _, c := range quietChannels() {
		t.Run(c.label, func(t *testing.T) {
			res := checkLanes(t, g, c, laneSeeds(64), func() congest.BroadcastAlgorithm { return &pacer{} }, 8)
			minRounds, maxRounds := res[0].SimRounds, res[0].SimRounds
			minBeepRounds, maxBeepRounds := res[0].BeepRounds, res[0].BeepRounds
			for _, r := range res[1:] {
				minRounds, maxRounds = min(minRounds, r.SimRounds), max(maxRounds, r.SimRounds)
				minBeepRounds, maxBeepRounds = min(minBeepRounds, r.BeepRounds), max(maxBeepRounds, r.BeepRounds)
			}
			if minRounds == maxRounds {
				t.Errorf("all 64 lanes ran %d sim rounds; want retirement skew", minRounds)
			}
			if minBeepRounds == maxBeepRounds {
				t.Errorf("all 64 lanes consumed %d beep rounds; want zero-sender skew", minBeepRounds)
			}
		})
	}
}

func TestSlicedRunnerValidation(t *testing.T) {
	g := graph.Path(3)
	if _, err := NewRunner(g, Config{MsgBits: 8}, nil); err == nil {
		t.Error("0 lanes accepted")
	}
	if _, err := NewRunner(g, Config{MsgBits: 8}, laneSeeds(65)); err == nil {
		t.Error("65 lanes accepted")
	}
	if _, err := NewRunner(g, Config{MsgBits: 0}, laneSeeds(2)); err == nil {
		t.Error("MsgBits=0 accepted")
	}
	if _, err := NewRunner(g, Config{MsgBits: 8, Channel: noise.Symmetric{Eps: 0.7}}, laneSeeds(2)); err == nil {
		t.Error("ε=0.7 accepted")
	}
	// Every channel that can flip a bit runs one lane, through beep
	// windows.
	for _, spec := range []string{
		"symmetric:0.1",
		"asymmetric:0.01:0",
		"erasure:0.1:0",
		"gilbert-elliott:0:0.3:0.1:0.2",
		"adversary:solo:1",
		"jam:1:10",
	} {
		cfg := Config{MsgBits: 8, Channel: channelOf(spec)}
		if got := Lanes(cfg); got != 1 {
			t.Errorf("channel %s can flip bits but has %d lanes", spec, got)
		}
		if _, err := NewRunner(g, cfg, laneSeeds(2)); err == nil {
			t.Errorf("channel %s can flip bits but accepted 2 lanes", spec)
		}
		if r, err := NewRunner(g, cfg, laneSeeds(1)); err != nil || r.nw == nil {
			t.Errorf("channel %s: one lane without beep windows (err %v)", spec, err)
		}
	}
	for _, c := range quietChannels() {
		if got := Lanes(Config{MsgBits: 8, Channel: channelOf(c.noise)}); got != 64 {
			t.Errorf("quiet channel %s has %d lanes, want 64", c.label, got)
		}
	}
	// A zero-budget adversary is noiseless, and ρ still calibrates
	// against its worst-case rate.
	sr, err := NewRunner(g, Config{MsgBits: 8, Channel: channelOf("adversary:solo:0")}, laneSeeds(2))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Rho() != 31 {
		t.Errorf("adversary:solo:0 calibrated ρ = %d, want 31", sr.Rho())
	}
	if _, err := sr.Run(make([][]congest.BroadcastAlgorithm, 1), 4); err == nil {
		t.Error("lane/algorithm set mismatch accepted")
	}
}
