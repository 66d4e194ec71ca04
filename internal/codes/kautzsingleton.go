package codes

import "fmt"

// KSParamsFor returns the smallest prime field size q and degree bound deg
// such that a Kautz–Singleton code (polynomials of degree < deg over F_q,
// each evaluation one-hot encoded in a length-q block) has at least
// numCodewords codewords and is k-cover-free. The resulting length is q²,
// which experiment T1 sets against the beep-code length (the paper's §1.4).
func KSParamsFor(numCodewords, k int) (q, deg int, err error) {
	if numCodewords < 2 || k < 1 {
		return 0, 0, fmt.Errorf("codes: KSParamsFor(%d, %d) invalid", numCodewords, k)
	}
	best := -1
	bestDeg := 0
	for deg := 1; deg <= 16; deg++ {
		// Need q^deg >= numCodewords and (deg == 1 or (q-1)/(deg-1) >= k).
		q := 2
		for pow(q, deg) < numCodewords || (deg > 1 && (q-1)/(deg-1) < k) {
			q++
			if q > 1<<20 {
				q = -1
				break
			}
		}
		if q < 0 {
			continue
		}
		q = NextPrime(q)
		if best == -1 || q*q < best*best {
			best, bestDeg = q, deg
		}
	}
	if best == -1 {
		return 0, 0, fmt.Errorf("codes: no Kautz–Singleton parameters for M=%d k=%d", numCodewords, k)
	}
	return best, bestDeg, nil
}

// IsPrime reports whether n is prime (trial division; n is small here).
func IsPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// NextPrime returns the smallest prime >= n.
func NextPrime(n int) int {
	if n < 2 {
		return 2
	}
	for !IsPrime(n) {
		n++
	}
	return n
}

func pow(base, exp int) int {
	v := 1
	for i := 0; i < exp; i++ {
		if v > 1<<40/base {
			return 1 << 40 // saturate
		}
		v *= base
	}
	return v
}
