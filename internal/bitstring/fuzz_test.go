package bitstring

import "testing"

// The fuzz targets pin every fused word-parallel helper to a naive
// bit-at-a-time reference over random word windows: the fused helpers
// are the decoders' hot paths, and any masking or early-exit slip shows
// up here as a divergence from the per-bit definition.

// fuzzBits derives an n-bit string from raw fuzz bytes (cycled when
// short), so every target explores arbitrary word contents including the
// all-ones and tail-boundary shapes.
func fuzzBits(raw []byte, salt byte, n int) *BitString {
	s := New(n)
	if len(raw) == 0 {
		raw = []byte{salt}
	}
	for i := 0; i < n; i++ {
		b := raw[i%len(raw)] ^ salt ^ byte(i/len(raw))
		if b>>(uint(i)%8)&1 == 1 {
			s.Set(i)
		}
	}
	return s
}

func FuzzAndCountLimit(f *testing.F) {
	f.Add([]byte{0xff, 0x0f}, uint16(130), uint8(3))
	f.Add([]byte{1, 2, 3}, uint16(64), uint8(0))
	f.Add([]byte{}, uint16(1), uint8(255))
	f.Fuzz(func(t *testing.T, raw []byte, nRaw uint16, limRaw uint8) {
		n := 1 + int(nRaw)%300
		a, b := fuzzBits(raw, 0x5a, n), fuzzBits(raw, 0xa5, n)
		limit := int(limRaw) % (n + 2)
		exact := 0
		for i := 0; i < n; i++ {
			if a.Get(i) && b.Get(i) {
				exact++
			}
		}
		want := exact
		if want > limit {
			want = limit
		}
		if got := a.AndCountLimit(b, limit); got != want {
			t.Fatalf("AndCountLimit(limit=%d) = %d, want %d (exact %d, n %d)", limit, got, want, exact, n)
		}
	})
}

func FuzzAndNotCountPrefixLimit(f *testing.F) {
	f.Add([]byte{0xf0}, uint16(129), uint16(65), uint8(9))
	f.Add([]byte{7, 7}, uint16(64), uint16(200), uint8(1))
	f.Add([]byte{}, uint16(0), uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, nRaw, prefRaw uint16, limRaw uint8) {
		n := 1 + int(nRaw)%300
		a, b := fuzzBits(raw, 0x33, n), fuzzBits(raw, 0xcc, n)
		prefix := int(prefRaw) % (n + 10) // may exceed n: clamped
		limit := int(limRaw) % (n + 2)
		exact := 0
		for i := 0; i < prefix && i < n; i++ {
			if a.Get(i) && !b.Get(i) {
				exact++
			}
		}
		want := exact
		if want > limit {
			want = limit
		}
		if got := a.AndNotCountPrefixLimit(b, prefix, limit); got != want {
			t.Fatalf("AndNotCountPrefixLimit(prefix=%d, limit=%d) = %d, want %d (n %d)", prefix, limit, got, want, n)
		}
	})
}

func FuzzOnesSetRange(f *testing.F) {
	f.Add([]byte{0xaa}, uint16(200), uint16(63), uint16(66))
	f.Add([]byte{0}, uint16(64), uint16(0), uint16(64))
	f.Add([]byte{0xff}, uint16(1), uint16(1), uint16(0))
	f.Fuzz(func(t *testing.T, raw []byte, nRaw, loRaw, hiRaw uint16) {
		n := 1 + int(nRaw)%300
		s := fuzzBits(raw, 0x0f, n)
		lo := int(loRaw) % (n + 1)
		hi := lo + int(hiRaw)%(n+1-lo)
		exact := 0
		for i := lo; i < hi; i++ {
			if s.Get(i) {
				exact++
			}
		}
		if got := s.OnesRange(lo, hi); got != exact {
			t.Fatalf("OnesRange(%d, %d) = %d, want %d (n %d)", lo, hi, got, exact, n)
		}
		orig := s.Clone()
		s.SetRange(lo, hi)
		for i := 0; i < n; i++ {
			want := orig.Get(i) || (i >= lo && i < hi)
			if s.Get(i) != want {
				t.Fatalf("SetRange(%d, %d): bit %d = %v, want %v", lo, hi, i, s.Get(i), want)
			}
		}
		s.MaskTail()
		if s.OnesRange(0, n) != s.Ones() {
			t.Fatalf("SetRange(%d, %d) broke the tail invariant", lo, hi)
		}
	})
}
