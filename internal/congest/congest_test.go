package congest

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/wire"
)

// gossip is a Broadcast CONGEST test algorithm: every node broadcasts its
// ID in round 0 and records the multiset it receives, then stops.
type gossip struct {
	env      Env
	received []uint64
	done     bool
}

func (g *gossip) Init(env Env) { g.env = env }

func (g *gossip) Broadcast(round int) Message {
	var w wire.Writer
	w.WriteUint(uint64(g.env.ID), g.env.MsgBits)
	return w.PaddedBytes(g.env.MsgBits)
}

func (g *gossip) Receive(round int, msgs []Message) {
	for _, m := range msgs {
		v, err := wire.NewReader(m).ReadUint(g.env.MsgBits)
		if err != nil {
			panic(err)
		}
		g.received = append(g.received, v)
	}
	g.done = true
}

func (g *gossip) Done() bool  { return g.done }
func (g *gossip) Output() any { return g.received }

func TestBroadcastGossip(t *testing.T) {
	g := graph.Cycle(5)
	e, err := NewBroadcastEngine(g, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	algs := make([]BroadcastAlgorithm, 5)
	for v := range algs {
		algs[v] = &gossip{}
	}
	res, err := e.Run(algs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDone || res.Rounds != 1 {
		t.Fatalf("allDone=%v rounds=%d", res.AllDone, res.Rounds)
	}
	if res.Messages != 5 {
		t.Errorf("Messages = %d, want 5", res.Messages)
	}
	for v := 0; v < 5; v++ {
		got := res.Outputs[v].([]uint64)
		left, right := uint64((v+4)%5), uint64((v+1)%5)
		if len(got) != 2 {
			t.Fatalf("node %d received %v", v, got)
		}
		// Delivery is sorted, not port-ordered.
		lo, hi := left, right
		if lo > hi {
			lo, hi = hi, lo
		}
		if got[0] != lo || got[1] != hi {
			t.Errorf("node %d received %v, want [%d %d]", v, got, lo, hi)
		}
	}
}

// silentEveryOther broadcasts only in even rounds, testing nil-message
// (absence) semantics.
type silentEveryOther struct {
	env    Env
	counts []int
	rounds int
}

func (s *silentEveryOther) Init(env Env) { s.env = env }

func (s *silentEveryOther) Broadcast(round int) Message {
	if round%2 == 1 {
		return nil
	}
	return Message{0}
}

func (s *silentEveryOther) Receive(round int, msgs []Message) {
	s.counts = append(s.counts, len(msgs))
	s.rounds++
}

func (s *silentEveryOther) Done() bool  { return s.rounds >= 4 }
func (s *silentEveryOther) Output() any { return s.counts }

func TestBroadcastNilMeansAbsent(t *testing.T) {
	g := graph.Path(2)
	e, _ := NewBroadcastEngine(g, 8, 1)
	algs := []BroadcastAlgorithm{&silentEveryOther{}, &silentEveryOther{}}
	res, err := e.Run(algs, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 0, 1, 0}
	got := res.Outputs[0].([]int)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("received counts = %v, want %v", got, want)
	}
}

// oversender violates the bandwidth.
type oversender struct{ env Env }

func (o *oversender) Init(env Env)           { o.env = env }
func (o *oversender) Broadcast(int) Message  { return make(Message, 100) }
func (o *oversender) Receive(int, []Message) {}
func (o *oversender) Done() bool             { return false }
func (o *oversender) Output() any            { return nil }

func TestBroadcastBandwidthEnforced(t *testing.T) {
	g := graph.Path(2)
	e, _ := NewBroadcastEngine(g, 8, 1)
	if _, err := e.Run([]BroadcastAlgorithm{&oversender{}, &oversender{}}, 5); err == nil {
		t.Error("oversized message accepted")
	}
}

func TestCheckWidth(t *testing.T) {
	tests := []struct {
		name    string
		msg     Message
		bits    int
		wantErr bool
	}{
		{name: "fits exactly", msg: Message{0xff}, bits: 8},
		{name: "short ok", msg: Message{0x01}, bits: 16},
		{name: "nil ok", msg: nil, bits: 8},
		{name: "too long", msg: Message{1, 2, 3}, bits: 16, wantErr: true},
		{name: "padding used", msg: Message{0xff}, bits: 5, wantErr: true},
		{name: "padding clean", msg: Message{0x1f}, bits: 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := CheckWidth(tt.msg, tt.bits)
			if (err != nil) != tt.wantErr {
				t.Errorf("CheckWidth = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestEngineValidation(t *testing.T) {
	g := graph.Path(2)
	if _, err := NewBroadcastEngine(g, 0, 1); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := NewEngine(g, -1, 1); err == nil {
		t.Error("negative bandwidth accepted")
	}
	e, _ := NewBroadcastEngine(g, 8, 1)
	if _, err := e.Run(nil, 5); err == nil {
		t.Error("wrong algorithm count accepted")
	}
}

func TestNodeStreamDeterministicPerNode(t *testing.T) {
	a := NodeStream(7, 3)
	b := NodeStream(7, 3)
	c := NodeStream(7, 4)
	if a.Uint64() != b.Uint64() {
		t.Error("NodeStream not deterministic")
	}
	if a.Uint64() == c.Uint64() {
		t.Error("NodeStream identical across nodes")
	}
}

// idExchange is a CONGEST test algorithm: round 0, send each neighbor a
// distinct message (my ID xor their ID); verify reception attribution.
type idExchange struct {
	env       Env
	neighbors []int
	got       map[int]uint64
	done      bool
}

func (x *idExchange) Init(env Env, neighbors []int) {
	x.env = env
	x.neighbors = neighbors
	x.got = make(map[int]uint64)
}

func (x *idExchange) Send(round int) []Directed {
	out := make([]Directed, 0, len(x.neighbors))
	for _, u := range x.neighbors {
		var w wire.Writer
		w.WriteUint(uint64(x.env.ID^u), x.env.MsgBits)
		out = append(out, Directed{To: u, Msg: w.PaddedBytes(x.env.MsgBits)})
	}
	return out
}

func (x *idExchange) Receive(round int, in []Incoming) {
	for _, inc := range in {
		v, err := wire.NewReader(inc.Msg).ReadUint(x.env.MsgBits)
		if err != nil {
			panic(err)
		}
		x.got[inc.From] = v
	}
	x.done = true
}

func (x *idExchange) Done() bool  { return x.done }
func (x *idExchange) Output() any { return x.got }

func TestCongestPerNeighborMessages(t *testing.T) {
	g := graph.Complete(4)
	e, _ := NewEngine(g, 8, 2)
	algs := make([]Algorithm, 4)
	for v := range algs {
		algs[v] = &idExchange{}
	}
	res, err := e.Run(algs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDone || res.Rounds != 1 {
		t.Fatalf("allDone=%v rounds=%d", res.AllDone, res.Rounds)
	}
	if res.Messages != 12 {
		t.Errorf("Messages = %d, want 12", res.Messages)
	}
	for v := 0; v < 4; v++ {
		got := res.Outputs[v].(map[int]uint64)
		for u := 0; u < 4; u++ {
			if u == v {
				continue
			}
			if got[u] != uint64(u^v) {
				t.Errorf("node %d got %d from %d, want %d", v, got[u], u, u^v)
			}
		}
	}
}

// rogue sends to a non-neighbor.
type rogue struct{ idExchange }

func (r *rogue) Send(round int) []Directed {
	return []Directed{{To: (r.env.ID + 2) % r.env.N, Msg: Message{0}}}
}

func TestCongestRejectsNonNeighborSend(t *testing.T) {
	g := graph.Cycle(5)
	e, _ := NewEngine(g, 8, 2)
	algs := make([]Algorithm, 5)
	for v := range algs {
		algs[v] = &rogue{}
	}
	if _, err := e.Run(algs, 5); err == nil {
		t.Error("send to non-neighbor accepted")
	}
}

// doubler sends two messages to the same neighbor.
type doubler struct{ idExchange }

func (d *doubler) Send(round int) []Directed {
	u := d.neighbors[0]
	return []Directed{{To: u, Msg: Message{0}}, {To: u, Msg: Message{1}}}
}

func TestCongestRejectsDuplicateSend(t *testing.T) {
	g := graph.Path(2)
	e, _ := NewEngine(g, 8, 2)
	if _, err := e.Run([]Algorithm{&doubler{}, &doubler{}}, 5); err == nil {
		t.Error("duplicate send accepted")
	}
}

func TestCongestIncomingSortedByFrom(t *testing.T) {
	g := graph.Star(5)
	e, _ := NewEngine(g, 8, 3)
	algs := make([]Algorithm, 5)
	for v := range algs {
		algs[v] = &idExchange{}
	}
	res, err := e.Run(algs, 5)
	if err != nil {
		t.Fatal(err)
	}
	center := res.Outputs[0].(map[int]uint64)
	if len(center) != 4 {
		t.Errorf("center received from %d senders, want 4", len(center))
	}
}

// TestBroadcastSerialParallelIdentical: the broadcast engine's sharded
// execution must reproduce the serial run exactly — outputs, round count,
// and message count — for every worker count.
func TestBroadcastSerialParallelIdentical(t *testing.T) {
	g, err := graph.RandomRegular(120, 6, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func(workers int) *Result {
		e, err := NewBroadcastEngine(g, 16, 5)
		if err != nil {
			t.Fatal(err)
		}
		e.SetParallelism(workers)
		algs := make([]BroadcastAlgorithm, g.N())
		for v := range algs {
			algs[v] = &gossip{}
		}
		res, err := e.Run(algs, 4)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := runOnce(1)
	for _, cfg := range []int{2, 4, 8} {
		got := runOnce(cfg)
		if got.Rounds != want.Rounds || got.AllDone != want.AllDone || got.Messages != want.Messages {
			t.Fatalf("workers=%v: %+v vs serial %+v", cfg, got, want)
		}
		if !reflect.DeepEqual(got.Outputs, want.Outputs) {
			t.Fatalf("workers=%v: outputs differ from serial run", cfg)
		}
	}
}

// TestCongestSerialParallelIdentical: the directed engine's
// receiver-centric parallel delivery must match the serial run exactly.
func TestCongestSerialParallelIdentical(t *testing.T) {
	g, err := graph.RandomRegular(80, 5, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func(workers int) *Result {
		e, err := NewEngine(g, 16, 9)
		if err != nil {
			t.Fatal(err)
		}
		e.SetParallelism(workers)
		algs := make([]Algorithm, g.N())
		for v := range algs {
			algs[v] = &idExchange{}
		}
		res, err := e.Run(algs, 3)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := runOnce(1)
	for _, cfg := range []int{2, 6} {
		got := runOnce(cfg)
		if got.Rounds != want.Rounds || got.AllDone != want.AllDone || got.Messages != want.Messages {
			t.Fatalf("workers=%v: %+v vs serial %+v", cfg, got, want)
		}
		if !reflect.DeepEqual(got.Outputs, want.Outputs) {
			t.Fatalf("workers=%v: outputs differ from serial run", cfg)
		}
	}
}

// TestParallelValidationErrorMatchesSerial: bandwidth violations must
// surface the same (first-in-vertex-order) error under parallel execution.
func TestParallelValidationErrorMatchesSerial(t *testing.T) {
	g := graph.Complete(70)
	runOnce := func(workers int) error {
		e, err := NewBroadcastEngine(g, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		e.SetParallelism(workers)
		algs := make([]BroadcastAlgorithm, g.N())
		for v := range algs {
			algs[v] = &oversender{}
		}
		_, err = e.Run(algs, 1)
		return err
	}
	serial := runOnce(1)
	parallel := runOnce(8)
	if serial == nil || parallel == nil {
		t.Fatal("expected bandwidth errors")
	}
	if serial.Error() != parallel.Error() {
		t.Fatalf("error differs: %q vs %q", serial, parallel)
	}
}
