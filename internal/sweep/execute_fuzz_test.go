package sweep

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The shape of a FuzzExecute input: one byte per scenario axis, read
// modulo the axis's choices, so every input decodes to a scenario.
const (
	shapeFamily = iota
	shapeN
	shapeParam
	shapeEngine
	shapeWorkload
	shapeChannel // a fuzzRates index, else a fuzzChannels one
	shapeArgA    // channel-model arguments
	shapeArgB
	shapeRounds
	shapeLen
)

// The registered families, engines and workloads; the package's tests
// register more workloads in sim's registry, which are not fuzzed.
var (
	fuzzFamilies = []string{FamilyRegular, FamilyBounded, FamilyPG, FamilyGrid,
		FamilyHypercube, FamilyHard, FamilyComplete, FamilyGeo}
	fuzzEngines   = []string{EngineAlg1, EngineTDMA, EngineCongest, EngineBeep}
	fuzzWorkloads = []string{WorkloadGossip, WorkloadMIS, WorkloadColoring, WorkloadLeader,
		WorkloadMatching, WorkloadBFSTree, WorkloadBroadcast}
	// fuzzRates are the symmetric channel's ε choices, the golden files'
	// rates among them.
	fuzzRates = []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4}
	pgOrders  = []int{2, 3, 5} // PG(2,q) has 2(q²+q+1) ≤ 64 nodes
)

// fuzzChannels build one registered non-symmetric model each from two
// argument bytes, always a valid one.
var fuzzChannels = []func(a, b byte) noise.Model{
	func(a, b byte) noise.Model {
		return noise.Asymmetric{P01: fuzzRates[int(a)%len(fuzzRates)], P10: fuzzRates[int(b)%len(fuzzRates)]}
	},
	func(a, b byte) noise.Model {
		return noise.Erasure{Q: fuzzRates[int(a)%len(fuzzRates)], ReadAs1: b&1 == 1}
	},
	func(a, b byte) noise.Model {
		return noise.GilbertElliott{
			PGood:      []float64{0, 0.01, 0.05}[a%3],
			PBad:       []float64{0.2, 0.4, 0.6}[a/3%3],
			PGoodToBad: []float64{0.02, 0.05, 0.1}[b%3],
			PBadToGood: []float64{0.2, 0.3, 0.5}[b/3%3],
		}
	},
	func(a, b byte) noise.Model {
		m := noise.Adversary{Budget: 4 * int(b)}
		switch a % 4 {
		case 0:
			m.Strategy, m.A = noise.StrategyRandom, []float64{0.1, 0.5, 1}[a/4%3]
		case 1:
			m.Strategy = noise.StrategySolo
		case 2:
			m.Strategy, m.A = noise.StrategyPhase, float64(int(8)<<(a/4%3))
			m.B = float64(1 + int(a/16)%int(m.A))
		case 3:
			m.Strategy, m.A = noise.StrategyHub, []float64{0, 0.5, 1}[a/4%3]
		}
		return m
	},
	func(a, b byte) noise.Model {
		period := 2 + int(a)%31
		return noise.Jam{Duty: int(b) % ((period + 1) / 2), Period: period}
	},
}

// fuzzScenario decodes a FuzzExecute input into a scenario of at most
// 64 nodes: any family, any registered engine with a workload it
// supports, ε or any registered non-symmetric channel model (native
// engines run on no channel), and the given seeds.
func fuzzScenario(shape []byte, graphSeed, channelSeed, algSeed uint64) Scenario {
	var s [shapeLen]int
	for i := range s {
		if i < len(shape) {
			s[i] = int(shape[i])
		}
	}
	sc := Scenario{Family: fuzzFamilies[s[shapeFamily]%len(fuzzFamilies)], GraphSeed: graphSeed}
	switch sc.Family {
	case FamilyRegular, FamilyBounded:
		sc.N = 2 + s[shapeN]%63
		sc.Param = 1 + s[shapeParam]%min(8, sc.N-1)
	case FamilyHard:
		sc.N = 2 + s[shapeN]%63
		sc.Param = 1 + s[shapeParam]%(sc.N/2)
	case FamilyComplete:
		sc.N = 2 + s[shapeN]%63
	case FamilyGeo:
		sc.N = 17 + s[shapeN]%48
	case FamilyPG:
		sc.Param = pgOrders[s[shapeParam]%len(pgOrders)]
	case FamilyGrid:
		sc.Param = 1 + s[shapeParam]%8
	case FamilyHypercube:
		sc.Param = 1 + s[shapeParam]%6
	}
	sc.Engine = fuzzEngines[s[shapeEngine]%len(fuzzEngines)]
	workloads := supportedWorkloads(sc.Engine)
	sc.Workload = workloads[s[shapeWorkload]%len(workloads)]
	if wl, _ := sim.WorkloadFor(sc.Workload); wl.UsesRounds() {
		sc.Rounds = 1 + s[shapeRounds]%3
	}
	sc.AlgSeed = algSeed
	if sim.IsNative(sc.Engine) {
		return sc // no channel: ε, Noise and ChannelSeed stay zero
	}
	sc.ChannelSeed = channelSeed
	if c := s[shapeChannel] % (len(fuzzRates) + len(fuzzChannels)); c < len(fuzzRates) {
		sc.Epsilon = fuzzRates[c]
	} else {
		sc.Noise = fuzzChannels[c-len(fuzzRates)](byte(s[shapeArgA]), byte(s[shapeArgB])).Spec()
	}
	return sc
}

// supportedWorkloads lists the fuzzed workloads engine supports.
func supportedWorkloads(engine string) []string {
	var out []string
	for _, w := range fuzzWorkloads {
		if Supports(engine, w) {
			out = append(out, w)
		}
	}
	return out
}

// fuzzShape is fuzzScenario's inverse on the symmetric-channel specs of
// the golden files, for seeding the corpus.
func fuzzShape(sc Scenario) []byte {
	s := make([]byte, shapeLen)
	s[shapeFamily] = byte(slices.Index(fuzzFamilies, sc.Family))
	switch sc.Family {
	case FamilyRegular, FamilyBounded, FamilyHard, FamilyComplete:
		s[shapeN] = byte(sc.N - 2)
	case FamilyGeo:
		s[shapeN] = byte(sc.N - 17)
	}
	switch sc.Family {
	case FamilyPG:
		s[shapeParam] = byte(slices.Index(pgOrders, sc.Param))
	case FamilyRegular, FamilyBounded, FamilyHard, FamilyGrid, FamilyHypercube:
		s[shapeParam] = byte(sc.Param - 1)
	}
	s[shapeEngine] = byte(slices.Index(fuzzEngines, sc.Engine))
	s[shapeWorkload] = byte(slices.Index(supportedWorkloads(sc.Engine), sc.Workload))
	s[shapeChannel] = byte(slices.Index(fuzzRates, sc.Epsilon))
	if sc.Rounds > 0 {
		s[shapeRounds] = byte(sc.Rounds - 1)
	}
	return s
}

// FuzzExecute drives the determinism contract (DESIGN.md §4) end to end
// on scenarios decoded from the fuzz input: Execute returns a record or
// an error and never panics; Workers 1 and Workers 3 (twelve spans) give
// the same record, timing aside; a metrics registry changes nothing; and
// the record survives EncodeLine and DecodeRecord, hash included. The
// corpus starts from one golden spec per engine × workload pair.
func FuzzExecute(f *testing.F) {
	seen := map[[2]string]bool{}
	for _, name := range []string{"pr4_records.jsonl", "native_beep_records.jsonl", "tdma_records.jsonl"} {
		for _, line := range readGoldenFile(f, name) {
			rec, err := DecodeRecord(line)
			if err != nil {
				f.Fatal(err)
			}
			sc, pair := rec.Spec, [2]string{rec.Spec.Engine, rec.Spec.Workload}
			if seen[pair] || sc.Noise != "" {
				continue
			}
			seen[pair] = true
			sc.Replicate = 0
			if got := fuzzScenario(fuzzShape(sc), sc.GraphSeed, sc.ChannelSeed, sc.AlgSeed); got != sc {
				f.Fatalf("golden spec %+v decodes back as %+v", sc, got)
			}
			f.Add(fuzzShape(sc), sc.GraphSeed, sc.ChannelSeed, sc.AlgSeed)
		}
	}
	f.Fuzz(func(t *testing.T, shape []byte, graphSeed, channelSeed, algSeed uint64) {
		sc := fuzzScenario(shape, graphSeed, channelSeed, algSeed)
		if err := sc.Validate(); err != nil {
			t.Fatalf("decoded %+v, which Validate refuses: %v", sc, err)
		}
		run := func(opt ExecOptions) (Record, string) {
			rec, err := Execute(sc, opt)
			if err != nil {
				return Record{}, err.Error()
			}
			rec.WallNanos, rec.BuildNanos = 0, 0
			return rec, ""
		}
		serial, serr := run(ExecOptions{Workers: 1})
		parallel, perr := run(ExecOptions{Workers: 3})
		if serr != perr || !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("%+v: Workers 1 gave (%+v, %q), Workers 3 (%+v, %q)", sc, serial, serr, parallel, perr)
		}
		metered, merr := run(ExecOptions{Workers: 1, Metrics: obs.NewRegistry()})
		if serr != merr || !reflect.DeepEqual(serial, metered) {
			t.Fatalf("%+v: a metrics registry changed the run: (%+v, %q) vs (%+v, %q)", sc, metered, merr, serial, serr)
		}
		if serr != "" {
			return
		}
		if serial.Hash != sc.Hash() {
			t.Fatalf("%+v: record hash %s, spec hash %s", sc, serial.Hash, sc.Hash())
		}
		line, err := EncodeLine(serial)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeRecord(trimNewline(line))
		if err != nil {
			t.Fatalf("%+v: encoded record does not decode: %v\n%s", sc, err, line)
		}
		if !reflect.DeepEqual(back, serial) {
			t.Fatalf("%+v: record changed through EncodeLine and DecodeRecord:\n%+v\n%+v", sc, back, serial)
		}
	})
}
