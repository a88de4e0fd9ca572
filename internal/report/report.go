// Package report renders experiment results as plain-text charts — the
// terminal stand-in for the paper's figures, shared by the commands and
// examples.
package report

import "strings"

// Bar renders a horizontal bar of the given width for v on a [0, maxV]
// scale: filled with '#', padded with '.'. Values outside the scale clamp.
func Bar(v, maxV float64, width int) string {
	if width <= 0 {
		return ""
	}
	if maxV <= 0 {
		return strings.Repeat(".", width)
	}
	n := int(v / maxV * float64(width))
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}
