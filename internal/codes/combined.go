package codes

import (
	"fmt"
	"strings"

	"repro/internal/bitstring"
)

// RenderCombined reproduces Figure 1 as text: the beep codeword C(r), the
// distance codeword D(m) aligned under C(r)'s one-positions, and the
// resulting combined codeword CD(r,m). dist must have exactly beepWord.Ones()
// bits.
func RenderCombined(beepWord, dist *bitstring.BitString) (string, error) {
	if dist.Len() != beepWord.Ones() {
		return "", fmt.Errorf("codes: D(m) has %d bits but C(r) has %d ones", dist.Len(), beepWord.Ones())
	}
	var cLine, dLine, cdLine strings.Builder
	di := 0
	for i := 0; i < beepWord.Len(); i++ {
		if beepWord.Get(i) {
			cLine.WriteByte('1')
			if dist.Get(di) {
				dLine.WriteByte('1')
				cdLine.WriteByte('1')
			} else {
				dLine.WriteByte('0')
				cdLine.WriteByte('0')
			}
			di++
		} else {
			cLine.WriteByte('0')
			dLine.WriteByte(' ')
			cdLine.WriteByte('0')
		}
	}
	return "C(r)     = " + cLine.String() + "\n" +
		"D(m)     = " + dLine.String() + "\n" +
		"CD(r,m)  = " + cdLine.String() + "\n", nil
}
