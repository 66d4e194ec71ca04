package sim

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
)

func init() {
	RegisterEngine(alg1Engine{})
	RegisterEngine(tdmaEngine{})
	RegisterEngine(congestEngine{})
	RegisterEngine(beepEngine{})
}

// oneSeed returns the algorithm seed of a one-lane engine's Config.
func oneSeed(engine string, cfg Config) (uint64, error) {
	if len(cfg.AlgSeeds) != 1 {
		return 0, fmt.Errorf("sim: engine %q runs one lane, got %d algorithm seeds", engine, len(cfg.AlgSeeds))
	}
	return cfg.AlgSeeds[0], nil
}

// oneLane adapts a one-lane run to Instance's per-lane shape.
type oneLane func(algs []congest.BroadcastAlgorithm, budget int) (*core.Result, Extras, error)

func (run oneLane) Run(algs [][]congest.BroadcastAlgorithm, budget int) ([]*core.Result, []Extras, error) {
	var lane []congest.BroadcastAlgorithm
	switch len(algs) {
	case 0: // a native beeping run takes no algorithm sets
	case 1:
		lane = algs[0]
	default:
		return nil, nil, fmt.Errorf("sim: %d algorithm sets for one lane", len(algs))
	}
	res, extras, err := run(lane, budget)
	if err != nil {
		return nil, nil, err
	}
	return []*core.Result{res}, []Extras{extras}, nil
}

// alg1Engine adapts the paper's Algorithm 1 simulation (internal/core).
type alg1Engine struct{}

func (alg1Engine) Name() string             { return EngineAlg1 }
func (alg1Engine) Native() bool             { return false }
func (alg1Engine) Supports(w Workload) bool { return true }
func (alg1Engine) DrivesAlgs() bool         { return true }
func (alg1Engine) Lanes(Config) int         { return 1 }

func (alg1Engine) Prepare(g *graph.Graph, cfg Config) (Instance, error) {
	seed, err := oneSeed(EngineAlg1, cfg)
	if err != nil {
		return nil, err
	}
	p := core.DefaultParamsFor(g.N(), g.MaxDegree(), cfg.MsgBits, cfg.Channel)
	codes, err := cfg.Artifacts.Codes(p)
	if err != nil {
		return nil, err
	}
	runner, err := core.NewBroadcastRunner(g, core.RunnerConfig{
		Params:      p,
		Codes:       codes,
		ChannelSeed: cfg.ChannelSeed,
		AlgSeed:     seed,
		Workers:     cfg.Workers,
		Metrics:     cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	return oneLane(func(algs []congest.BroadcastAlgorithm, budget int) (*core.Result, Extras, error) {
		res, err := runner.Run(algs, budget)
		return res, nil, err
	}), nil
}

// tdmaEngine adapts the prior-work G²-coloring baseline
// (internal/baseline), reporting its schedule parameterization as
// Extras. Its replicates run as lanes of one baseline.Runner whenever
// the channel cannot flip a bit.
type tdmaEngine struct{}

func (tdmaEngine) Name() string             { return EngineTDMA }
func (tdmaEngine) Native() bool             { return false }
func (tdmaEngine) Supports(w Workload) bool { return true }
func (tdmaEngine) DrivesAlgs() bool         { return true }

func (tdmaEngine) Lanes(cfg Config) int {
	return baseline.Lanes(baseline.Config{Channel: cfg.Channel})
}

func (tdmaEngine) Prepare(g *graph.Graph, cfg Config) (Instance, error) {
	bl, err := baseline.NewRunner(g, baseline.Config{
		MsgBits:     cfg.MsgBits,
		Channel:     cfg.Channel,
		ChannelSeed: cfg.ChannelSeed,
		Workers:     cfg.Workers,
		Metrics:     cfg.Metrics,
	}, cfg.AlgSeeds)
	if err != nil {
		return nil, err
	}
	return tdmaInstance{r: bl, g: g}, nil
}

type tdmaInstance struct {
	r *baseline.Runner
	g *graph.Graph
}

func (i tdmaInstance) Run(algs [][]congest.BroadcastAlgorithm, budget int) ([]*core.Result, []Extras, error) {
	results, err := i.r.Run(algs, budget)
	if err != nil {
		return nil, nil, err
	}
	extras := make([]Extras, len(results))
	for k := range extras {
		extras[k] = Extras{
			ExtraColors:      int64(i.r.NumColors()),
			ExtraRho:         int64(i.r.Rho()),
			ExtraSetupRounds: int64(baseline.EstimatedSetupRounds(i.g.N(), i.g.MaxDegree())),
		}
	}
	return results, extras, nil
}

// congestEngine adapts native Broadcast CONGEST (internal/congest): no
// beeps, no decode errors — natively delivered messages cannot err.
type congestEngine struct{}

func (congestEngine) Name() string             { return EngineCongest }
func (congestEngine) Native() bool             { return true }
func (congestEngine) Supports(w Workload) bool { return true }
func (congestEngine) DrivesAlgs() bool         { return true }
func (congestEngine) Lanes(Config) int         { return 1 }

func (congestEngine) Prepare(g *graph.Graph, cfg Config) (Instance, error) {
	seed, err := oneSeed(EngineCongest, cfg)
	if err != nil {
		return nil, err
	}
	eng, err := congest.NewBroadcastEngine(g, cfg.MsgBits, seed)
	if err != nil {
		return nil, err
	}
	eng.SetParallelism(cfg.Workers)
	return oneLane(func(algs []congest.BroadcastAlgorithm, budget int) (*core.Result, Extras, error) {
		res, err := eng.Run(algs, budget)
		if err != nil {
			return nil, nil, err
		}
		out := &core.Result{SimRounds: res.Rounds, AllDone: res.AllDone, Outputs: res.Outputs}
		return out, Extras{ExtraMessages: res.Messages}, nil
	}), nil
}

// beepEngine adapts native beeping algorithms (internal/beepalgs): the
// channel is noiseless, the algorithm seed drives the whole run (there
// is no separate channel stream), and only workloads with a
// NativeBeeper implementation can run.
type beepEngine struct{}

func (beepEngine) Name() string     { return EngineBeep }
func (beepEngine) Native() bool     { return true }
func (beepEngine) Lanes(Config) int { return 1 }

// DrivesAlgs is false: the beep engine executes the workload natively
// (NativeBeeper), so CONGEST instances are never constructed for it.
func (beepEngine) DrivesAlgs() bool { return false }

func (beepEngine) Supports(w Workload) bool {
	_, ok := w.(NativeBeeper)
	return ok
}

func (beepEngine) Prepare(g *graph.Graph, cfg Config) (Instance, error) {
	nb, ok := cfg.Workload.(NativeBeeper)
	if !ok {
		name := "<nil>"
		if cfg.Workload != nil {
			name = cfg.Workload.Name()
		}
		return nil, fmt.Errorf("sim: engine %q cannot run workload %q natively", EngineBeep, name)
	}
	seed, err := oneSeed(EngineBeep, cfg)
	if err != nil {
		return nil, err
	}
	return oneLane(func([]congest.BroadcastAlgorithm, int) (*core.Result, Extras, error) {
		res, err := nb.RunBeep(g, seed, cfg.Metrics)
		return res, nil, err
	}), nil
}
