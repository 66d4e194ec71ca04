package sweep

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/sim"
)

// GraphInfo records the realized graph a scenario ran on (the spec only
// pins the generator; Δ of a random bounded-degree graph, say, is a
// measurement).
type GraphInfo struct {
	N         int `json:"n"`
	MaxDegree int `json:"max_degree"`
	Edges     int `json:"edges"`
}

// Counters is the serializable core of an engine result: core.Result's
// counters (whose JSON tags define the field names — that struct is the
// serialization hook this record format builds on) plus the fields only
// native engines or workloads produce. Per-node Outputs are arbitrary
// values and do not survive serialization; workload-level correctness is
// distilled into OutputOK instead.
type Counters struct {
	core.Result
	// Messages counts messages sent by the native CONGEST engines.
	Messages int64 `json:"messages,omitempty"`
	// OutputOK reports workload-level output validity where the workload
	// defines one (MIS verification); nil when not applicable.
	OutputOK *bool `json:"output_ok,omitempty"`
}

// countersFromCore wraps an engine result, stripping the
// non-serializable Outputs and Verdict.
func countersFromCore(res *core.Result) Counters {
	r := *res
	r.Outputs, r.Verdict = nil, nil
	return Counters{Result: r}
}

// Record is one scenario's persisted result: the JSONL unit of the
// result store. Everything except WallNanos is a pure function of the
// spec, so a Record served from cache is bit-identical to a fresh run.
type Record struct {
	// Hash is Spec.Hash(), the record's content address.
	Hash string `json:"hash"`
	// Spec is the scenario that produced the record.
	Spec Scenario `json:"spec"`
	// Graph is the realized topology.
	Graph GraphInfo `json:"graph"`
	// Counters is the engine result.
	Counters Counters `json:"counters"`
	// Colors, Rho, and SetupRounds are TDMA-only: the G²-coloring class
	// count, the per-bit repetition, and the estimated distributed setup
	// cost the centralized coloring stands in for.
	Colors      int `json:"colors,omitempty"`
	Rho         int `json:"rho,omitempty"`
	SetupRounds int `json:"setup_rounds,omitempty"`
	// Failure, when non-empty, is the reason the scenario's protocol is
	// considered broken: a hostile channel (noise.Hostile) left nodes
	// unfinished or the output invalid. It stores the reason only;
	// BrokenError reconstructs the typed *sim.ProtocolBrokenError.
	// Deterministic like every spec function.
	Failure string `json:"failure,omitempty"`
	// WallNanos is the measured wall time of the engine run alone and
	// BuildNanos that of everything before it — graph construction,
	// workload instances, and engine preparation (code tables, TDMA
	// schedule). They are the non-deterministic fields, excluded from
	// any equality the cache relies on because cached records are never
	// re-measured. Keeping setup out of WallNanos (and near zero on
	// artifact-cache hits) makes cache effectiveness visible in the
	// aggregates' build-time column.
	WallNanos  int64 `json:"wall_nanos"`
	BuildNanos int64 `json:"build_nanos,omitempty"`
}

// Broken reports whether the record carries a broken-protocol failure.
func (r Record) Broken() bool { return r.Failure != "" }

// BrokenError reconstructs the typed broken-protocol error from a
// failed record, nil otherwise.
func (r Record) BrokenError() error {
	if r.Failure == "" {
		return nil
	}
	return &sim.ProtocolBrokenError{
		Workload: r.Spec.Workload,
		Engine:   r.Spec.Engine,
		Noise:    r.Spec.Noise,
		Reason:   r.Failure,
	}
}

// BeepsPerSimRound is the overhead metric of Theorem 11: physical beep
// rounds per simulated round.
func (r Record) BeepsPerSimRound() int {
	if r.Counters.SimRounds < 1 {
		return r.Counters.BeepRounds
	}
	return r.Counters.BeepRounds / r.Counters.SimRounds
}

// NodeRounds is n·SimRounds, the denominator of the error rates.
func (r Record) NodeRounds() int { return r.Graph.N * r.Counters.SimRounds }

// MsgErrRate is MessageErrors per node-round.
func (r Record) MsgErrRate() float64 {
	if r.NodeRounds() == 0 {
		return 0
	}
	return float64(r.Counters.MessageErrors) / float64(r.NodeRounds())
}

// MemErrRate is MembershipErrors per node-round.
func (r Record) MemErrRate() float64 {
	if r.NodeRounds() == 0 {
		return 0
	}
	return float64(r.Counters.MembershipErrors) / float64(r.NodeRounds())
}

// BeepsPerNodeRound is the energy metric of ablation A4.
func (r Record) BeepsPerNodeRound() float64 {
	if r.NodeRounds() == 0 {
		return 0
	}
	return float64(r.Counters.Beeps) / float64(r.NodeRounds())
}

// EncodeJSONL writes v as one line of JSON. It is the single encoder for
// everything this repository persists or emits as machine-readable
// output (sweep records, cmd/experiments -json tables), so downstream
// consumers see one framing.
func EncodeJSONL(w io.Writer, v any) error {
	b, err := EncodeLine(v)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// EncodeLine returns v's JSONL framing — one JSON line including the
// trailing newline — without writing it, so stores can encode outside
// their critical sections and append the prebuilt bytes under the lock.
func EncodeLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("sweep: encode: %w", err)
	}
	return append(b, '\n'), nil
}

// DecodeRecord parses one JSONL line and checks the stored hash against
// the spec's recomputed hash, so corrupt or hand-edited lines can never
// satisfy a cache lookup.
func DecodeRecord(line []byte) (Record, error) {
	var rec Record
	if err := json.Unmarshal(line, &rec); err != nil {
		return Record{}, fmt.Errorf("sweep: decode record: %w", err)
	}
	if got := rec.Spec.Hash(); got != rec.Hash {
		return Record{}, fmt.Errorf("sweep: record hash %s does not match spec hash %s", rec.Hash, got)
	}
	return rec, nil
}
