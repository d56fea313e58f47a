// Package ascii renders experiment series as terminal line charts, so
// ecosim can show Figs. 6–11 without any plotting dependency.
package ascii

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Chart draws one or more y-series sharing an x axis as an ASCII line chart
// of the given width and height. Series beyond the first are overlaid with
// distinct glyphs.
func Chart(w io.Writer, title string, x []float64, series map[string][]float64, width, height int) error {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	if len(x) == 0 || len(series) == 0 {
		_, err := fmt.Fprintf(w, "%s\n  (no data)\n", title)
		return err
	}
	// Stable series order for deterministic glyph assignment.
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sortStrings(names)

	glyphs := []byte{'*', '+', 'o', 'x', '#', '@'}
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, name := range names {
		for _, v := range series[name] {
			if v < ymin {
				ymin = v
			}
			if v > ymax {
				ymax = v
			}
		}
	}
	if ymin > 0 && ymin < 0.25*(ymax-ymin+1e-12) {
		ymin = 0 // anchor near-zero baselines at zero
	}
	if ymax <= ymin { // degenerate range: every sample equal
		ymax = ymin + 1
	}
	xmin, xmax := x[0], x[len(x)-1]
	if xmax <= xmin {
		xmax = xmin + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, name := range names {
		g := glyphs[si%len(glyphs)]
		ys := series[name]
		for i, xv := range x {
			if i >= len(ys) {
				break
			}
			col := int(float64(width-1) * (xv - xmin) / (xmax - xmin))
			row := height - 1 - int(float64(height-1)*(ys[i]-ymin)/(ymax-ymin))
			if col >= 0 && col < width && row >= 0 && row < height {
				grid[row][col] = g
			}
		}
	}

	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	for r, line := range grid {
		label := "        "
		switch r {
		case 0:
			label = fmt.Sprintf("%8.3g", ymax)
		case height - 1:
			label = fmt.Sprintf("%8.3g", ymin)
		}
		if _, err := fmt.Fprintf(w, "%s |%s|\n", label, string(line)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "         %-*.4g%*.4g\n", width/2, xmin, width-width/2, xmax); err != nil {
		return err
	}
	for si, name := range names {
		if _, err := fmt.Fprintf(w, "           %c %s\n", glyphs[si%len(glyphs)], name); err != nil {
			return err
		}
	}
	return nil
}

// sortStrings is an allocation-free insertion sort (tiny inputs only).
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
