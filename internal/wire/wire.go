// Package wire implements the bit-level message codec used by the
// message-passing models. Broadcast CONGEST and CONGEST messages are
// γ·log n-bit strings (paper §3); algorithms pack typed fields (IDs, Luby
// values, tags) into fixed-width bit fields so that the beep-level
// simulation transmits exactly the bits the model allows.
//
// The encoding is little-endian within each byte: bit offset k of the
// message lives at byte k/8, bit k%8.
package wire

import "fmt"

// BitsFor returns the number of bits needed to represent every value in
// [0, n), with a minimum of 1. It panics if n <= 0.
func BitsFor(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("wire: BitsFor(%d)", n))
	}
	bits := 1
	for v := n - 1; v > 1; v >>= 1 {
		bits++
	}
	return bits
}

// Writer appends fixed-width unsigned fields to a bit buffer.
// The zero value is an empty writer ready for use.
type Writer struct {
	buf    []byte
	bitLen int
}

// WriteUint appends the width low-order bits of v. It panics if width is
// outside [0, 64] or if v does not fit in width bits (a programming error:
// the message format would silently corrupt otherwise).
func (w *Writer) WriteUint(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("wire: invalid field width %d", width))
	}
	if width < 64 && v >= 1<<uint(width) {
		panic(fmt.Sprintf("wire: value %d does not fit in %d bits", v, width))
	}
	for i := 0; i < width; i++ {
		byteIdx := w.bitLen / 8
		if byteIdx == len(w.buf) {
			w.buf = append(w.buf, 0)
		}
		if v&(1<<uint(i)) != 0 {
			w.buf[byteIdx] |= 1 << uint(w.bitLen%8)
		}
		w.bitLen++
	}
}

// WriteBool appends a single bit.
func (w *Writer) WriteBool(v bool) {
	if v {
		w.WriteUint(1, 1)
	} else {
		w.WriteUint(0, 1)
	}
}

// Bytes returns the encoded message. Unused bits of the final byte are
// zero. The returned slice aliases the writer's buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// PaddedBytes returns the encoded message padded with zero bits up to
// exactly totalBits. It panics if more than totalBits bits were written.
func (w *Writer) PaddedBytes(totalBits int) []byte {
	if w.bitLen > totalBits {
		panic(fmt.Sprintf("wire: message is %d bits, exceeds budget %d", w.bitLen, totalBits))
	}
	out := make([]byte, (totalBits+7)/8)
	copy(out, w.buf)
	return out
}

// Reader consumes fixed-width unsigned fields from a bit buffer.
type Reader struct {
	buf    []byte
	bitPos int
}

// NewReader returns a Reader over msg. The reader does not copy msg.
func NewReader(msg []byte) *Reader { return &Reader{buf: msg} }

// ReadUint consumes the next width bits and returns them as an unsigned
// value. It returns an error if fewer than width bits remain.
func (r *Reader) ReadUint(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("wire: invalid field width %d", width)
	}
	if r.bitPos+width > 8*len(r.buf) {
		return 0, fmt.Errorf("wire: read of %d bits at offset %d exceeds message of %d bits",
			width, r.bitPos, 8*len(r.buf))
	}
	var v uint64
	for i := 0; i < width; i++ {
		if r.buf[r.bitPos/8]&(1<<uint(r.bitPos%8)) != 0 {
			v |= 1 << uint(i)
		}
		r.bitPos++
	}
	return v, nil
}

// ReadBool consumes one bit.
func (r *Reader) ReadBool() (bool, error) {
	v, err := r.ReadUint(1)
	return v == 1, err
}

// Bit returns bit k of msg, treating positions beyond the buffer as 0.
// This is how the simulator reads message bits for transmission: messages
// are conceptually padded with zeros to the model's bandwidth.
func Bit(msg []byte, k int) bool {
	if k < 0 || k/8 >= len(msg) {
		return false
	}
	return msg[k/8]&(1<<uint(k%8)) != 0
}

// SetBit sets bit k of msg to v. It panics if k is out of range of the
// buffer.
func SetBit(msg []byte, k int, v bool) {
	if k < 0 || k/8 >= len(msg) {
		panic(fmt.Sprintf("wire: SetBit(%d) out of range for %d-byte buffer", k, len(msg)))
	}
	if v {
		msg[k/8] |= 1 << uint(k%8)
	} else {
		msg[k/8] &^= 1 << uint(k%8)
	}
}

// Equal reports whether two messages carry identical bits up to bits
// positions (both padded with zeros beyond their length). It compares
// whole bytes (masking the final partial byte) rather than looping per
// bit — the engines' scoring paths call it once per delivered message.
func Equal(a, b []byte, bits int) bool {
	n := bits / 8
	for k := 0; k < n; k++ {
		var av, bv byte
		if k < len(a) {
			av = a[k]
		}
		if k < len(b) {
			bv = b[k]
		}
		if av != bv {
			return false
		}
	}
	if rem := bits % 8; rem != 0 {
		var av, bv byte
		if n < len(a) {
			av = a[n]
		}
		if n < len(b) {
			bv = b[n]
		}
		mask := byte(1<<uint(rem)) - 1
		if av&mask != bv&mask {
			return false
		}
	}
	return true
}
