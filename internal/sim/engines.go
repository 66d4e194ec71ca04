package sim

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

func init() {
	RegisterEngine(alg1Engine{})
	RegisterEngine(tdmaEngine{})
	RegisterEngine(congestEngine{})
	RegisterEngine(beepEngine{})
}

// alg1Engine adapts the paper's Algorithm 1 simulation (internal/core).
type alg1Engine struct{}

func (alg1Engine) Name() string             { return EngineAlg1 }
func (alg1Engine) Native() bool             { return false }
func (alg1Engine) Supports(w Workload) bool { return true }
func (alg1Engine) DrivesAlgs() bool         { return true }

func (alg1Engine) Prepare(g *graph.Graph, cfg Config) (Instance, error) {
	p, err := core.DefaultParamsNoise(g.N(), g.MaxDegree(), cfg.MsgBits, cfg.Epsilon, cfg.Noise)
	if err != nil {
		return nil, err
	}
	var codes *core.Codes
	if cfg.Artifacts != nil {
		var err error
		if codes, err = cfg.Artifacts.Codes(p); err != nil {
			return nil, err
		}
	}
	runner, err := core.NewBroadcastRunner(g, core.RunnerConfig{
		Params:      p,
		Codes:       codes,
		ChannelSeed: cfg.ChannelSeed,
		AlgSeed:     cfg.AlgSeed,
		Workers:     cfg.Workers,
		Metrics:     cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	return alg1Instance{runner}, nil
}

type alg1Instance struct{ r *core.BroadcastRunner }

func (i alg1Instance) Run(algs []congest.BroadcastAlgorithm, budget int) (*core.Result, Extras, error) {
	res, err := i.r.Run(algs, budget)
	return res, nil, err
}

// tdmaEngine adapts the prior-work G²-coloring baseline
// (internal/baseline), reporting its schedule parameterization as
// Extras.
type tdmaEngine struct{}

func (tdmaEngine) Name() string             { return EngineTDMA }
func (tdmaEngine) Native() bool             { return false }
func (tdmaEngine) Supports(w Workload) bool { return true }
func (tdmaEngine) DrivesAlgs() bool         { return true }

func (tdmaEngine) Prepare(g *graph.Graph, cfg Config) (Instance, error) {
	bl, err := baseline.NewRunner(g, baseline.Config{
		MsgBits:     cfg.MsgBits,
		Epsilon:     cfg.Epsilon,
		Noise:       cfg.Noise,
		ChannelSeed: cfg.ChannelSeed,
		AlgSeed:     cfg.AlgSeed,
		Workers:     cfg.Workers,
		Metrics:     cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	return tdmaInstance{r: bl, g: g}, nil
}

// PrepareSliced implements the SlicedEngine capability over the TDMA
// baseline's noiseless lane batch (internal/baseline.SlicedRunner).
// Lane results are bit-identical to Prepare+Run per lane — the sweep
// conformance tests pin stored records byte-for-byte across the two
// paths.
func (tdmaEngine) PrepareSliced(g *graph.Graph, base Config, algSeeds []uint64) (SlicedInstance, error) {
	bl, err := baseline.NewSlicedRunner(g, baseline.Config{
		MsgBits: base.MsgBits,
		Epsilon: base.Epsilon,
		Noise:   base.Noise,
		Workers: base.Workers,
		Metrics: base.Metrics,
	}, algSeeds)
	if err != nil {
		return nil, err
	}
	return tdmaSlicedInstance{r: bl, g: g}, nil
}

type tdmaInstance struct {
	r *baseline.Runner
	g *graph.Graph
}

func (i tdmaInstance) Run(algs []congest.BroadcastAlgorithm, budget int) (*core.Result, Extras, error) {
	res, err := i.r.Run(algs, budget)
	if err != nil {
		return nil, nil, err
	}
	return res, Extras{
		ExtraColors:      int64(i.r.NumColors()),
		ExtraRho:         int64(i.r.Rho()),
		ExtraSetupRounds: int64(baseline.EstimatedSetupRounds(i.g.N(), i.g.MaxDegree())),
	}, nil
}

type tdmaSlicedInstance struct {
	r *baseline.SlicedRunner
	g *graph.Graph
}

func (i tdmaSlicedInstance) RunSliced(algs [][]congest.BroadcastAlgorithm, budget int) ([]*core.Result, []Extras, error) {
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

func (congestEngine) Prepare(g *graph.Graph, cfg Config) (Instance, error) {
	eng, err := congest.NewBroadcastEngine(g, cfg.MsgBits, cfg.AlgSeed)
	if err != nil {
		return nil, err
	}
	eng.SetParallelism(cfg.Workers)
	return congestInstance{eng}, nil
}

type congestInstance struct{ e *congest.BroadcastEngine }

func (i congestInstance) Run(algs []congest.BroadcastAlgorithm, budget int) (*core.Result, Extras, error) {
	res, err := i.e.Run(algs, budget)
	if err != nil {
		return nil, nil, err
	}
	out := &core.Result{SimRounds: res.Rounds, AllDone: res.AllDone, Outputs: res.Outputs}
	return out, Extras{ExtraMessages: res.Messages}, nil
}

// beepEngine adapts native beeping algorithms (internal/beepalgs): the
// channel is noiseless, AlgSeed drives the whole run (there is no
// separate channel stream), and only workloads with a NativeBeeper
// implementation can run.
type beepEngine struct{}

func (beepEngine) Name() string { return EngineBeep }
func (beepEngine) Native() bool { return true }

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
	return beepInstance{g: g, nb: nb, seed: cfg.AlgSeed, metrics: cfg.Metrics}, nil
}

type beepInstance struct {
	g       *graph.Graph
	nb      NativeBeeper
	seed    uint64
	metrics *obs.Registry
}

func (i beepInstance) Run(algs []congest.BroadcastAlgorithm, budget int) (*core.Result, Extras, error) {
	res, err := i.nb.RunBeep(i.g, i.seed, i.metrics)
	return res, nil, err
}
