package sweep

import (
	"fmt"

	"repro/internal/noise"
	"repro/internal/sim"
)

// FrontierOptions configures a resilience-frontier search.
type FrontierOptions struct {
	// Exec configures every probe, each a Run of one scenario (so Jobs
	// is 1 and an auto Workers gives the probe the whole machine). The
	// store is the resume mechanism: each probe is an ordinary
	// content-hashed scenario, so a warm store answers repeated probes
	// with zero re-simulation. A nil Exec.Artifacts gets one cache for
	// the whole search, so the probes share the graph and code tables.
	Exec Options
	// Progress, when non-nil, receives one call per probe as it
	// resolves (sequential — no locking needed).
	Progress func(FrontierProbe)
}

// FrontierProbe reports one budget probe of a frontier search.
type FrontierProbe struct {
	// Scenario indexes the input slice; Budget is the probed budget.
	Scenario, Budget int
	// Cached reports a store hit; Broken the probe's outcome.
	Cached, Broken bool
}

// FrontierResult is one scenario's resolved resilience frontier: the
// minimal adversary budget that breaks the protocol.
type FrontierResult struct {
	// Scenario is the input scenario (its Noise budget is the search
	// ceiling); Strategy the adversary strategy searched over.
	Scenario Scenario
	Strategy string
	// MaxBudget is the ceiling (the input spec's budget). Breaking is
	// the minimal budget in [0, MaxBudget] whose scenario records a
	// broken protocol, or -1 when even MaxBudget does not break it
	// (the protocol's frontier lies beyond the ceiling).
	MaxBudget int
	Breaking  int
	// Probes counts budget evaluations; Cached of them were served from
	// the store, Ran were executed.
	Probes, Cached, Ran int
}

// Unbroken reports that no budget up to the ceiling broke the protocol.
func (r FrontierResult) Unbroken() bool { return r.Breaking < 0 }

// FrontierSearch finds, for each scenario, the minimal adversary budget
// that breaks its protocol. Each scenario's Noise must be an adversary
// spec; its budget is the search ceiling. Probes are ordinary scenarios
// — identical spec except the budget — executed through the store, so
// the search is deterministic (pure bisection over a greedy adversary,
// DESIGN.md §2.16), byte-identical across runs, and resumable: a warm
// store re-answers every probe without simulation.
//
// "Broken" is Record.Broken(): the hostile-channel failure attribution
// of execution (failed output verification or unfinished nodes).
// Scenarios must therefore use a workload with an output-validity
// notion (not gossip, which is unverified).
func FrontierSearch(scenarios []Scenario, store StoreEngine, opt FrontierOptions) ([]FrontierResult, error) {
	if opt.Exec.Artifacts == nil {
		opt.Exec.Artifacts = sim.NewCache()
	}
	results := make([]FrontierResult, 0, len(scenarios))
	for i, sc := range scenarios {
		res, err := frontierOne(i, sc, store, opt)
		if err != nil {
			return results, fmt.Errorf("sweep: frontier scenario %d (%s): %w", i, sc.Hash(), err)
		}
		results = append(results, res)
	}
	return results, nil
}

func frontierOne(idx int, sc Scenario, store StoreEngine, opt FrontierOptions) (FrontierResult, error) {
	if err := sc.Validate(); err != nil {
		return FrontierResult{}, err
	}
	m, err := noise.Parse(sc.Noise)
	if err != nil {
		return FrontierResult{}, err
	}
	adv, ok := m.(noise.Adversary)
	if !ok {
		return FrontierResult{}, fmt.Errorf("noise %q is not an adversary spec (the budget is the search axis)", sc.Noise)
	}
	res := FrontierResult{Scenario: sc, Strategy: adv.Strategy, MaxBudget: adv.Budget, Breaking: -1}

	probe := func(budget int) (bool, error) {
		a := adv
		a.Budget = budget
		psc := sc
		psc.Noise = a.Spec()
		res.Probes++
		recs, st, err := Run([]Scenario{psc}, store, opt.Exec)
		if err != nil {
			return false, fmt.Errorf("budget %d: %w", budget, err)
		}
		res.Cached += st.Cached
		res.Ran += st.Ran
		if opt.Progress != nil {
			opt.Progress(FrontierProbe{Scenario: idx, Budget: budget, Cached: st.Cached == 1, Broken: recs[0].Broken()})
		}
		return recs[0].Broken(), nil
	}

	// Bracket first: an unbroken ceiling means the frontier lies beyond
	// it (Breaking = -1, one probe); a broken floor means even budget 0
	// fails — with a zero-budget adversary the channel is noiseless, so
	// the protocol fails within its own workload budget without any
	// corruption.
	broken, err := probe(res.MaxBudget)
	if err != nil {
		return res, err
	}
	if !broken {
		return res, nil
	}
	res.Breaking = res.MaxBudget
	if res.MaxBudget == 0 {
		return res, nil
	}
	broken, err = probe(0)
	if err != nil {
		return res, err
	}
	if broken {
		res.Breaking = 0
		return res, nil
	}
	// Invariant: lo never breaks, hi always breaks.
	lo, hi := 0, res.MaxBudget
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		broken, err := probe(mid)
		if err != nil {
			return res, err
		}
		if broken {
			hi = mid
		} else {
			lo = mid
		}
	}
	res.Breaking = hi
	return res, nil
}
