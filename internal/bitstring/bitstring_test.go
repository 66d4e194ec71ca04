package bitstring

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewLengths(t *testing.T) {
	tests := []struct {
		n         int
		wantWords int
	}{
		{n: 0, wantWords: 0},
		{n: 1, wantWords: 1},
		{n: 63, wantWords: 1},
		{n: 64, wantWords: 1},
		{n: 65, wantWords: 2},
		{n: 1000, wantWords: 16},
	}
	for _, tt := range tests {
		s := New(tt.n)
		if s.Len() != tt.n {
			t.Errorf("New(%d).Len() = %d, want %d", tt.n, s.Len(), tt.n)
		}
		if got := len(s.Words()); got != tt.wantWords {
			t.Errorf("New(%d) words = %d, want %d", tt.n, got, tt.wantWords)
		}
		if s.Ones() != 0 {
			t.Errorf("New(%d).Ones() = %d, want 0", tt.n, s.Ones())
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGetClear(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Get(i) {
			t.Errorf("fresh bit %d set", i)
		}
		s.Set(i)
		if !s.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
	}
	if got := s.Ones(); got != 8 {
		t.Fatalf("Ones() = %d, want 8", got)
	}
	s.ClearBit(64)
	if s.Get(64) {
		t.Error("bit 64 still set after ClearBit")
	}
	s.SetBool(64, true)
	if !s.Get(64) {
		t.Error("bit 64 not set after SetBool(true)")
	}
	s.SetBool(64, false)
	if s.Get(64) {
		t.Error("bit 64 set after SetBool(false)")
	}
	s.Flip(64)
	if !s.Get(64) {
		t.Error("bit 64 not set after Flip")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for name, fn := range map[string]func(){
		"Get":   func() { s.Get(10) },
		"Set":   func() { s.Set(-1) },
		"Clear": func() { s.ClearBit(10) },
		"Flip":  func() { s.Flip(11) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestParseAndString(t *testing.T) {
	tests := []struct {
		text    string
		wantErr bool
	}{
		{text: ""},
		{text: "0"},
		{text: "1"},
		{text: "0101100111"},
		{text: "01021", wantErr: true},
		{text: "abc", wantErr: true},
	}
	for _, tt := range tests {
		s, err := Parse(tt.text)
		if tt.wantErr {
			if err == nil {
				t.Errorf("Parse(%q): no error", tt.text)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", tt.text, err)
			continue
		}
		if got := s.String(); got != tt.text {
			t.Errorf("Parse(%q).String() = %q", tt.text, got)
		}
	}
}

func TestLogicOps(t *testing.T) {
	a := mustParse(t, "110010")
	b := mustParse(t, "101010")
	tests := []struct {
		name string
		got  *BitString
		want string
	}{
		{name: "And", got: a.And(b), want: "100010"},
		{name: "Or", got: a.Or(b), want: "111010"},
		{name: "Xor", got: a.Xor(b), want: "011000"},
		{name: "NotA", got: a.Not(), want: "001101"},
	}
	for _, tt := range tests {
		if got := tt.got.String(); got != tt.want {
			t.Errorf("%s = %q, want %q", tt.name, got, tt.want)
		}
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	a, b := New(5), New(6)
	defer func() {
		if recover() == nil {
			t.Fatal("And with mismatched lengths did not panic")
		}
	}()
	a.And(b)
}

func TestNotMasksTail(t *testing.T) {
	// Not on a length not divisible by 64 must not leak 1s into the tail,
	// or popcounts would be wrong.
	for _, n := range []int{1, 5, 63, 65, 100, 129} {
		s := New(n)
		inv := s.Not()
		if got := inv.Ones(); got != n {
			t.Errorf("Not(zeros(%d)).Ones() = %d, want %d", n, got, n)
		}
		if inv.Not().Ones() != 0 {
			t.Errorf("double Not of zeros(%d) is not zeros", n)
		}
	}
}

func TestCounts(t *testing.T) {
	// a has 1s at {0,1,2,5,8,9}; b has 1s at {1,2,4,5,9}.
	a := mustParse(t, "1110010011")
	b := mustParse(t, "0110110001")
	if got, want := a.AndCount(b), 4; got != want { // {1,2,5,9}
		t.Errorf("AndCount = %d, want %d", got, want)
	}
	if got, want := a.AndNotCount(b), 2; got != want { // {0,8}
		t.Errorf("AndNotCount = %d, want %d", got, want)
	}
	if got, want := a.HammingDistance(b), 3; got != want { // {0,4,8}
		t.Errorf("HammingDistance = %d, want %d", got, want)
	}
	if got, want := a.Zeros(), 4; got != want {
		t.Errorf("Zeros = %d, want %d", got, want)
	}
}

func TestIntersects(t *testing.T) {
	a := mustParse(t, "11100")
	b := mustParse(t, "01110")
	// 1(a ∧ b) = 2.
	tests := []struct {
		d    int
		want bool
	}{
		{d: 0, want: true},
		{d: 1, want: true},
		{d: 2, want: true},
		{d: 3, want: false},
	}
	for _, tt := range tests {
		if got := a.Intersects(b, tt.d); got != tt.want {
			t.Errorf("Intersects(d=%d) = %v, want %v", tt.d, got, tt.want)
		}
	}
}

func TestOnesPositions(t *testing.T) {
	s := New(200)
	want := []int{0, 63, 64, 127, 128, 199}
	for _, p := range want {
		s.Set(p)
	}
	got := s.OnesPositions()
	if len(got) != len(want) {
		t.Fatalf("OnesPositions len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("OnesPositions[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestOnePosition(t *testing.T) {
	s := New(150)
	positions := []int{3, 64, 99, 149}
	for _, p := range positions {
		s.Set(p)
	}
	for i, want := range positions {
		got, ok := s.OnePosition(i)
		if !ok || got != want {
			t.Errorf("OnePosition(%d) = (%d,%v), want (%d,true)", i, got, ok, want)
		}
	}
	if _, ok := s.OnePosition(len(positions)); ok {
		t.Error("OnePosition past the last 1 reported ok (want the paper's Null case)")
	}
	if _, ok := s.OnePosition(-1); ok {
		t.Error("OnePosition(-1) reported ok")
	}
}

func TestSuperimpose(t *testing.T) {
	if got := Superimpose(nil); got != nil {
		t.Errorf("Superimpose(nil) = %v, want nil", got)
	}
	a := mustParse(t, "1000")
	b := mustParse(t, "0100")
	c := mustParse(t, "0101")
	got := Superimpose([]*BitString{a, b, c})
	if got.String() != "1101" {
		t.Errorf("Superimpose = %q, want 1101", got.String())
	}
	// Inputs must be unchanged.
	if a.String() != "1000" || b.String() != "0100" {
		t.Error("Superimpose mutated its inputs")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := mustParse(t, "1010")
	c := a.Clone()
	c.Set(1)
	if a.Get(1) {
		t.Error("mutating clone changed the original")
	}
	if !a.Equal(a.Clone()) {
		t.Error("clone not Equal to original")
	}
	if a.Equal(New(5)) {
		t.Error("Equal across lengths")
	}
}

func TestInPlaceOps(t *testing.T) {
	a := mustParse(t, "1100")
	b := mustParse(t, "0110")
	a.OrInPlace(b)
	if a.String() != "1110" {
		t.Errorf("OrInPlace = %q, want 1110", a.String())
	}
	a.XorInPlace(b)
	if a.String() != "1000" {
		t.Errorf("XorInPlace = %q, want 1000", a.String())
	}
	a.Reset()
	if a.Ones() != 0 || a.Len() != 4 {
		t.Errorf("Reset left Ones=%d Len=%d", a.Ones(), a.Len())
	}
}

func TestMaskTailAfterWordsMutation(t *testing.T) {
	s := New(10)
	s.Words()[0] = ^uint64(0)
	s.MaskTail()
	if got := s.Ones(); got != 10 {
		t.Errorf("after MaskTail Ones = %d, want 10", got)
	}
}

// randomBitString is a helper for property tests.
func randomBitString(r *rand.Rand, n int) *BitString {
	s := New(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 1 {
			s.Set(i)
		}
	}
	return s
}

func TestPropertyDeMorgan(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%300) + 1
		r := rand.New(rand.NewSource(seed))
		a := randomBitString(r, n)
		b := randomBitString(r, n)
		// ¬(a ∨ b) == ¬a ∧ ¬b
		left := a.Or(b).Not()
		right := a.Not().And(b.Not())
		return left.Equal(right)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyPopcountLinearity(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%300) + 1
		r := rand.New(rand.NewSource(seed))
		a := randomBitString(r, n)
		b := randomBitString(r, n)
		// |a| + |b| == |a∨b| + |a∧b|
		return a.Ones()+b.Ones() == a.Or(b).Ones()+a.And(b).Ones()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyHammingViaXor(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%300) + 1
		r := rand.New(rand.NewSource(seed))
		a := randomBitString(r, n)
		b := randomBitString(r, n)
		return a.HammingDistance(b) == a.Xor(b).Ones()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyAndNotCountConsistent(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%300) + 1
		r := rand.New(rand.NewSource(seed))
		a := randomBitString(r, n)
		b := randomBitString(r, n)
		return a.AndNotCount(b) == a.And(b.Not()).Ones()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyIntersectionMonotone(t *testing.T) {
	// Adding strings to a superimposition never decreases d-intersection
	// with a fixed string (monotonicity used implicitly by Lemma 8's
	// superset argument).
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%300) + 1
		r := rand.New(rand.NewSource(seed))
		x := randomBitString(r, n)
		a := randomBitString(r, n)
		b := randomBitString(r, n)
		return x.AndCount(a) <= x.AndCount(a.Or(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyStringRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw % 300)
		r := rand.New(rand.NewSource(seed))
		a := randomBitString(r, n)
		back, err := Parse(a.String())
		return err == nil && a.Equal(back)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyOnesPositionsConsistent(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%300) + 1
		r := rand.New(rand.NewSource(seed))
		a := randomBitString(r, n)
		pos := a.OnesPositions()
		if len(pos) != a.Ones() {
			return false
		}
		for i, p := range pos {
			got, ok := a.OnePosition(i)
			if !ok || got != p || !a.Get(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetAllAndCopyFrom(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		s := New(n)
		s.SetAll()
		if s.Ones() != n {
			t.Errorf("n=%d: SetAll gave %d ones", n, s.Ones())
		}
		s.MaskTail()
		if s.Ones() != n {
			t.Errorf("n=%d: SetAll left tail bits set", n)
		}
		dst := New(n)
		dst.CopyFrom(s)
		if !dst.Equal(s) {
			t.Errorf("n=%d: CopyFrom mismatch", n)
		}
		s.Reset()
		if dst.Ones() != n {
			t.Errorf("n=%d: CopyFrom aliased source", n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("CopyFrom length mismatch did not panic")
		}
	}()
	New(5).CopyFrom(New(6))
}

func TestPropertyAndCountLimit(t *testing.T) {
	f := func(seed int64, nRaw uint16, limRaw uint8) bool {
		n := 1 + int(nRaw)%300
		r := rand.New(rand.NewSource(seed))
		a := randomBitString(r, n)
		b := randomBitString(r, n)
		exact := a.AndCount(b)
		limit := int(limRaw) % (n + 2)
		got := a.AndCountLimit(b, limit)
		if exact >= limit {
			return got == limit
		}
		return got == exact
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyAndNotCountLimit(t *testing.T) {
	f := func(seed int64, nRaw uint16, limRaw uint8) bool {
		n := 1 + int(nRaw)%300
		r := rand.New(rand.NewSource(seed))
		a := randomBitString(r, n)
		b := randomBitString(r, n)
		exact := a.AndNotCount(b)
		limit := int(limRaw) % (n + 2)
		got := a.AndNotCountLimit(b, limit)
		if exact >= limit {
			return got == limit
		}
		return got == exact
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyAndNotCountPrefixLimit(t *testing.T) {
	f := func(seed int64, nRaw uint16, prefRaw, limRaw uint8) bool {
		n := 1 + int(nRaw)%300
		r := rand.New(rand.NewSource(seed))
		a := randomBitString(r, n)
		b := randomBitString(r, n)
		prefix := int(prefRaw) % (n + 10) // may exceed n: clamped
		exact := 0
		for i := 0; i < prefix && i < n; i++ {
			if a.Get(i) && !b.Get(i) {
				exact++
			}
		}
		limit := int(limRaw) % (n + 2)
		got := a.AndNotCountPrefixLimit(b, prefix, limit)
		if exact >= limit {
			return got == limit
		}
		return got == exact
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyGatherInto(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := 8 + int(nRaw)%200
		k := 1 + int(kRaw)%100
		r := rand.New(rand.NewSource(seed))
		s := randomBitString(r, n)
		positions := make([]int32, k)
		for j := range positions {
			positions[j] = int32(r.Intn(n))
		}
		dst := New(k)
		dst.SetAll() // GatherInto must fully overwrite
		s.GatherInto(dst, positions)
		for j, p := range positions {
			if dst.Get(j) != s.Get(int(p)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyCountZerosAtLimit(t *testing.T) {
	f := func(seed int64, nRaw, kRaw, limRaw uint8) bool {
		n := 8 + int(nRaw)%200
		k := 1 + int(kRaw)%100
		r := rand.New(rand.NewSource(seed))
		s := randomBitString(r, n)
		positions := make([]int32, k)
		exact := 0
		for j := range positions {
			positions[j] = int32(r.Intn(n))
			if !s.Get(int(positions[j])) {
				exact++
			}
		}
		limit := int(limRaw) % (k + 2)
		got := s.CountZerosAtLimit(positions, limit)
		if exact >= limit {
			return got == limit
		}
		return got == exact
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mustParse(t *testing.T, text string) *BitString {
	t.Helper()
	s, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse(%q): %v", text, err)
	}
	return s
}

func BenchmarkOrInPlace(b *testing.B) {
	x := New(1 << 16)
	y := New(1 << 16)
	for i := 0; i < y.Len(); i += 3 {
		y.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.OrInPlace(y)
	}
}

func BenchmarkAndNotCount(b *testing.B) {
	x := New(1 << 16)
	y := New(1 << 16)
	for i := 0; i < x.Len(); i += 2 {
		x.Set(i)
	}
	for i := 0; i < y.Len(); i += 5 {
		y.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.AndNotCount(y)
	}
}

func TestPropertyOnesRange(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := 1 + int(nRaw)%300
		r := rand.New(rand.NewSource(seed))
		s := randomBitString(r, n)
		lo := r.Intn(n + 1)
		hi := lo + r.Intn(n+1-lo)
		want := 0
		for i := lo; i < hi; i++ {
			if s.Get(i) {
				want++
			}
		}
		return s.OnesRange(lo, hi) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySetRange(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := 1 + int(nRaw)%300
		r := rand.New(rand.NewSource(seed))
		s := randomBitString(r, n)
		want := s.Clone()
		lo := r.Intn(n + 1)
		hi := lo + r.Intn(n+1-lo)
		for i := lo; i < hi; i++ {
			want.Set(i)
		}
		s.SetRange(lo, hi)
		return s.Equal(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRangeBoundsPanic(t *testing.T) {
	s := New(70)
	for _, r := range [][2]int{{-1, 5}, {0, 71}, {9, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("OnesRange(%d, %d) did not panic", r[0], r[1])
				}
			}()
			s.OnesRange(r[0], r[1])
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetRange(%d, %d) did not panic", r[0], r[1])
				}
			}()
			s.SetRange(r[0], r[1])
		}()
	}
}
