package ascii

import (
	"bytes"
	"strings"
	"testing"
)

func TestChartRendersAllSeries(t *testing.T) {
	var buf bytes.Buffer
	x := []float64{0, 1, 2, 3}
	err := Chart(&buf, "test", x, map[string][]float64{
		"up":   {0, 1, 2, 3},
		"down": {3, 2, 1, 0},
	}, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "test") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "up") || !strings.Contains(out, "down") {
		t.Fatal("missing legend entries")
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatal("missing series glyphs")
	}
	if lines := strings.Count(out, "\n"); lines < 12 {
		t.Fatalf("chart too short: %d lines", lines)
	}
}

func TestChartEmptyData(t *testing.T) {
	var buf bytes.Buffer
	if err := Chart(&buf, "empty", nil, nil, 40, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no data") {
		t.Fatal("empty chart should say so")
	}
}

func TestChartConstantSeries(t *testing.T) {
	var buf bytes.Buffer
	err := Chart(&buf, "const", []float64{0, 1}, map[string][]float64{"c": {5, 5}}, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "*") {
		t.Fatal("constant series not drawn")
	}
}

func TestChartDeterministicGlyphOrder(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		_ = Chart(&buf, "t", []float64{0, 1}, map[string][]float64{
			"b": {1, 2}, "a": {2, 1}, "c": {0, 0},
		}, 30, 6)
		return buf.String()
	}
	if render() != render() {
		t.Fatal("map iteration leaked into chart output")
	}
}
