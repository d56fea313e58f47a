// Package experiments reproduces every figure of the paper's evaluation, one
// driver per figure (or per figure group sharing a run). Each driver returns
// Figure values — plain numeric tables with named columns — that the cmd/
// binaries render as ASCII charts and CSV, and that EXPERIMENTS.md quotes.
//
// Every driver takes an options struct whose zero-value-adjusted default is
// the paper's full scale; tests and quick runs shrink the scale through the
// same options.
package experiments

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Figure is one reproduced plot: rows of numeric columns plus free-form
// notes recording the measured values of the paper's in-text claims.
type Figure struct {
	ID      string // e.g. "fig7"
	Title   string
	Columns []string
	Rows    [][]float64
	Notes   []string
}

// Add appends a row; the column count must match.
func (f *Figure) Add(row ...float64) {
	if len(row) != len(f.Columns) {
		panic(fmt.Sprintf("experiments: %s row has %d values for %d columns", f.ID, len(row), len(f.Columns)))
	}
	f.Rows = append(f.Rows, row)
}

// Notef appends a formatted note.
func (f *Figure) Notef(format string, args ...any) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// Column returns the values of the named column. It panics on unknown names
// (a typo in an experiment is a bug, not a runtime condition).
func (f *Figure) Column(name string) []float64 {
	for i, c := range f.Columns {
		if c == name {
			out := make([]float64, len(f.Rows))
			for r, row := range f.Rows {
				out[r] = row[i]
			}
			return out
		}
	}
	panic(fmt.Sprintf("experiments: figure %s has no column %q", f.ID, name))
}

// WriteCSV emits the figure as CSV with a comment header carrying the title
// and notes.
func (f *Figure) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# %s: %s\n", f.ID, f.Title); err != nil {
		return err
	}
	for _, n := range f.Notes {
		if _, err := fmt.Fprintf(bw, "# note: %s\n", n); err != nil {
			return err
		}
	}
	for i, c := range f.Columns {
		if i > 0 {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString(c); err != nil {
			return err
		}
	}
	if err := bw.WriteByte('\n'); err != nil {
		return err
	}
	for _, row := range f.Rows {
		for i, v := range row {
			if i > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(bw, "%g", v); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SaveCSV writes the figure as <dir>/<ID>.csv, creating dir if needed, and
// returns the path written.
func (f *Figure) SaveCSV(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, f.ID+".csv")
	w, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := f.WriteCSV(w); err != nil {
		w.Close()
		return "", err
	}
	return path, w.Close()
}

// WriteMarkdown renders the figure as a Markdown section: title, notes, and
// the data as a table. Wide or long figures (per-server matrices) emit only
// their shape and notes — the CSV carries the full data.
func (f *Figure) WriteMarkdown(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "## %s — %s\n\n", f.ID, f.Title); err != nil {
		return err
	}
	for _, n := range f.Notes {
		if _, err := fmt.Fprintf(bw, "- %s\n", n); err != nil {
			return err
		}
	}
	if len(f.Notes) > 0 {
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	const maxCols, maxRows = 10, 60
	if len(f.Columns) > maxCols || len(f.Rows) > maxRows {
		_, err := fmt.Fprintf(bw, "(%d columns × %d rows — see %s.csv)\n\n",
			len(f.Columns), len(f.Rows), f.ID)
		if err != nil {
			return err
		}
		return bw.Flush()
	}
	for i, c := range f.Columns {
		if i > 0 {
			if _, err := bw.WriteString(" | "); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString(c); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n"); err != nil {
		return err
	}
	for i := range f.Columns {
		if i > 0 {
			if _, err := bw.WriteString(" | "); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString("---"); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n"); err != nil {
		return err
	}
	for _, row := range f.Rows {
		for i, v := range row {
			if i > 0 {
				if _, err := bw.WriteString(" | "); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(bw, "%g", v); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	if err := bw.WriteByte('\n'); err != nil {
		return err
	}
	return bw.Flush()
}
