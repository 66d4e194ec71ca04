package wire

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitsFor(t *testing.T) {
	tests := []struct {
		n    int
		want int
	}{
		{n: 1, want: 1},
		{n: 2, want: 1},
		{n: 3, want: 2},
		{n: 4, want: 2},
		{n: 5, want: 3},
		{n: 8, want: 3},
		{n: 9, want: 4},
		{n: 1024, want: 10},
		{n: 1025, want: 11},
	}
	for _, tt := range tests {
		if got := BitsFor(tt.n); got != tt.want {
			t.Errorf("BitsFor(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestBitsForPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BitsFor(0) did not panic")
		}
	}()
	BitsFor(0)
}

func TestWriteReadRoundTrip(t *testing.T) {
	var w Writer
	w.WriteUint(5, 3)
	w.WriteBool(true)
	w.WriteUint(1023, 10)
	w.WriteUint(0, 0) // zero-width field is a no-op
	w.WriteBool(false)
	w.WriteUint(1<<63, 64)
	if got, want := w.BitLen(), 3+1+10+0+1+64; got != want {
		t.Fatalf("BitLen = %d, want %d", got, want)
	}

	r := NewReader(w.Bytes())
	if v, err := r.ReadUint(3); err != nil || v != 5 {
		t.Errorf("field 1 = (%d,%v), want 5", v, err)
	}
	if v, err := r.ReadBool(); err != nil || !v {
		t.Errorf("field 2 = (%v,%v), want true", v, err)
	}
	if v, err := r.ReadUint(10); err != nil || v != 1023 {
		t.Errorf("field 3 = (%d,%v), want 1023", v, err)
	}
	if v, err := r.ReadBool(); err != nil || v {
		t.Errorf("field 4 = (%v,%v), want false", v, err)
	}
	if v, err := r.ReadUint(64); err != nil || v != 1<<63 {
		t.Errorf("field 5 = (%d,%v), want 1<<63", v, err)
	}
}

func TestWriteOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WriteUint(4, 2) did not panic")
		}
	}()
	var w Writer
	w.WriteUint(4, 2)
}

func TestWriteBadWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WriteUint width 65 did not panic")
		}
	}()
	var w Writer
	w.WriteUint(0, 65)
}

func TestReadPastEnd(t *testing.T) {
	r := NewReader([]byte{0xff})
	if _, err := r.ReadUint(8); err != nil {
		t.Fatalf("first read: %v", err)
	}
	if _, err := r.ReadUint(1); err == nil {
		t.Error("read past end did not error")
	}
}

func TestReadBadWidth(t *testing.T) {
	r := NewReader([]byte{0})
	if _, err := r.ReadUint(-1); err == nil {
		t.Error("negative width did not error")
	}
	if _, err := r.ReadUint(65); err == nil {
		t.Error("width 65 did not error")
	}
}

func TestRemaining(t *testing.T) {
	r := NewReader([]byte{0, 0})
	if r.Remaining() != 16 {
		t.Fatalf("Remaining = %d, want 16", r.Remaining())
	}
	if _, err := r.ReadUint(5); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 11 {
		t.Errorf("Remaining = %d, want 11", r.Remaining())
	}
}

func TestPaddedBytes(t *testing.T) {
	var w Writer
	w.WriteUint(3, 2)
	out := w.PaddedBytes(20)
	if len(out) != 3 {
		t.Fatalf("PaddedBytes length = %d, want 3", len(out))
	}
	if out[0] != 3 || out[1] != 0 || out[2] != 0 {
		t.Errorf("PaddedBytes = %v", out)
	}
}

func TestPaddedBytesPanicsWhenOverBudget(t *testing.T) {
	var w Writer
	w.WriteUint(0, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("PaddedBytes under budget did not panic")
		}
	}()
	w.PaddedBytes(8)
}

func TestBitAndSetBit(t *testing.T) {
	msg := make([]byte, 2)
	SetBit(msg, 0, true)
	SetBit(msg, 9, true)
	if !Bit(msg, 0) || !Bit(msg, 9) || Bit(msg, 1) {
		t.Errorf("Bit/SetBit mismatch: %v", msg)
	}
	SetBit(msg, 9, false)
	if Bit(msg, 9) {
		t.Error("SetBit(false) did not clear")
	}
	// Out-of-range reads are zero, not panics (padding semantics).
	if Bit(msg, 16) || Bit(msg, -1) {
		t.Error("out-of-range Bit read non-zero")
	}
}

func TestSetBitPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetBit out of range did not panic")
		}
	}()
	SetBit(make([]byte, 1), 8, true)
}

func TestEqualPadding(t *testing.T) {
	a := []byte{0b101}
	b := []byte{0b101, 0x00}
	if !Equal(a, b, 16) {
		t.Error("messages equal up to zero padding reported unequal")
	}
	c := []byte{0b111}
	if Equal(a, c, 3) {
		t.Error("different messages reported equal")
	}
	if !Equal(a, c, 1) {
		t.Error("messages agreeing on compared prefix reported unequal")
	}
}

func TestPropertyRoundTripRandomFields(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nFields := r.Intn(10) + 1
		widths := make([]int, nFields)
		values := make([]uint64, nFields)
		var w Writer
		for i := range widths {
			widths[i] = r.Intn(64) + 1
			values[i] = r.Uint64()
			if widths[i] < 64 {
				values[i] &= (1 << uint(widths[i])) - 1
			}
			w.WriteUint(values[i], widths[i])
		}
		rd := NewReader(w.Bytes())
		for i := range widths {
			v, err := rd.ReadUint(widths[i])
			if err != nil || v != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyBitLenMatchesWidthSum(t *testing.T) {
	f := func(widthsRaw []uint8) bool {
		var w Writer
		sum := 0
		for _, wr := range widthsRaw {
			width := int(wr % 65)
			w.WriteUint(0, width)
			sum += width
		}
		return w.BitLen() == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// BitLen returns the number of bits written so far.
func (w *Writer) BitLen() int { return w.bitLen }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return 8*len(r.buf) - r.bitPos }
