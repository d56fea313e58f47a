package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const fixtureRoot = "testdata/src/fixture"

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := NewLoader(fixtureRoot)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// expectation is one "// want <rule>" marker: a diagnostic of that rule on
// that line of that file.
type expectation struct {
	file string
	line int
	rule string
}

func (e expectation) String() string { return fmt.Sprintf("%s:%d [%s]", e.file, e.line, e.rule) }

// parseWants reads the markers of every .go file under dir. A marker at the
// end of a code line expects the diagnostic on that line; a comment-only
// "// want <rule>" line expects it on the following line.
func parseWants(t *testing.T, dir string) []expectation {
	t.Helper()
	var wants []expectation
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			target := i + 1 // 1-based line of the marker
			if strings.HasPrefix(strings.TrimSpace(line), "// want ") {
				target++ // comment-only marker points at the next line
			}
			for _, rule := range strings.Fields(line[idx+len("// want "):]) {
				wants = append(wants, expectation{file: abs, line: target, rule: rule})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

func sortedExpectations(es []expectation) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.String()
	}
	sort.Strings(out)
	return out
}

// TestFixturesMatchWants lints the whole fixture module and compares the
// diagnostics against the markers exactly: every marked line must fire and
// nothing else may (the unmarked lines are the negative cases).
func TestFixturesMatchWants(t *testing.T) {
	diags, err := Run(fixtureLoader(t), DefaultConfig(), []string{"fixture/..."})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]expectation, len(diags))
	for i, d := range diags {
		got[i] = expectation{file: d.File, line: d.Line, rule: d.Rule}
	}
	want := parseWants(t, fixtureRoot)
	gs, ws := sortedExpectations(got), sortedExpectations(want)
	if strings.Join(gs, "\n") != strings.Join(ws, "\n") {
		t.Errorf("diagnostics do not match markers.\n got:\n  %s\nwant:\n  %s",
			strings.Join(gs, "\n  "), strings.Join(ws, "\n  "))
		for _, d := range diags {
			t.Logf("full: %s", d)
		}
	}
}

// TestEachRuleFixture runs the suite against each rule's fixture package in
// isolation: every package must produce at least one finding of its rule
// (the positive cases) and, except for the deliberate malformed-directive
// findings, nothing from any other rule.
func TestEachRuleFixture(t *testing.T) {
	cases := []struct {
		pkg   string
		rules []string
	}{
		{"fixture/wallclock", []string{RuleWallclock}},
		{"fixture/globalrand", []string{RuleGlobalRand}},
		{"fixture/explicitsource", []string{RuleExplicitSource}},
		{"fixture/floateq", []string{RuleFloatEq}},
		{"fixture/orderedoutput", []string{RuleOrderedOutput}},
		{"fixture/goroutine", []string{RuleGoroutine}},
		{"fixture/boundary", []string{RuleBoundary}},
		{"fixture/taint", []string{RuleWallclock, RuleGlobalRand}},
		{"fixture/hotpath", []string{RuleHotpath}},
		{"fixture/sharedwrite", []string{RuleSharedWrite}},
	}
	for _, tc := range cases {
		t.Run(strings.TrimPrefix(tc.pkg, "fixture/"), func(t *testing.T) {
			diags, err := Run(fixtureLoader(t), DefaultConfig(), []string{tc.pkg})
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]int{}
			for _, d := range diags {
				switch {
				case slicesContains(tc.rules, d.Rule):
					seen[d.Rule]++
				case d.Rule == RuleDirective: // deliberate malformed-directive cases
				default:
					t.Errorf("unexpected %s", d)
				}
			}
			for _, rule := range tc.rules {
				if seen[rule] == 0 {
					t.Errorf("no %s findings in %s", rule, tc.pkg)
				}
			}
		})
	}
}

func slicesContains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// TestCleanFixture pins the false-positive rate: the clean package must
// produce nothing.
func TestCleanFixture(t *testing.T) {
	diags, err := Run(fixtureLoader(t), DefaultConfig(), []string{"fixture/clean"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("clean fixture flagged: %s", d)
	}
}

// TestScopeRestriction verifies the sim-critical scoping: with an empty
// scope the wallclock fixture produces no wallclock findings, while the
// unscoped float-eq rule still fires everywhere.
func TestScopeRestriction(t *testing.T) {
	cfg := Config{SimCritical: nil}
	diags, err := Run(fixtureLoader(t), cfg, []string{"fixture/wallclock", "fixture/floateq"})
	if err != nil {
		t.Fatal(err)
	}
	sawFloat := false
	for _, d := range diags {
		switch d.Rule {
		case RuleWallclock:
			t.Errorf("wallclock fired outside its scope: %s", d)
		case RuleFloatEq:
			sawFloat = true
		}
	}
	if !sawFloat {
		t.Error("float-eq did not fire; it must apply regardless of scope")
	}
}

// TestMatchScope covers the pattern matcher directly.
func TestMatchScope(t *testing.T) {
	cases := []struct {
		path string
		pats []string
		want bool
	}{
		{"repro/internal/sim", []string{"repro/internal/..."}, true},
		{"repro/internal", []string{"repro/internal/..."}, true},
		{"repro/cmd/ecobench", []string{"repro/internal/..."}, false},
		{"fixture/wallclock", []string{"fixture/..."}, true},
		{"anything", []string{"..."}, true},
		{"repro/internal/sim", []string{"repro/internal/sim"}, true},
		{"repro/internal/simx", []string{"repro/internal/sim"}, false},
		{"repro/internal/sim", nil, false},
	}
	for _, tc := range cases {
		if got := matchScope(tc.path, tc.pats); got != tc.want {
			t.Errorf("matchScope(%q, %v) = %v, want %v", tc.path, tc.pats, got, tc.want)
		}
	}
}

// TestDirectiveParsing covers the annotation grammar, comma-separated rule
// lists included.
func TestDirectiveParsing(t *testing.T) {
	cases := []struct {
		in      string
		rules   string // comma-joined expectation
		problem bool
	}{
		{" wallclock — telemetry timer", "wallclock", false},
		{" wallclock -- telemetry timer", "wallclock", false},
		{" float-eq: bitwise compare", "float-eq", false},
		{" wallclock,globalrand — provenance line", "wallclock,globalrand", false},
		{" wallclock,globalrand,hotpath — kitchen sink", "wallclock,globalrand,hotpath", false},
		{" wallclock", "", true},                  // missing reason
		{" clockwork — nope", "", true},           // unknown rule
		{" wallclock,clockwork — nope", "", true}, // one bad entry poisons the list
		{" wallclock, globalrand — x", "", true},  // space splits the list: trailing comma
		{" wallclock,globalrand", "", true},       // list without a reason
		{"", "", true},
	}
	for _, tc := range cases {
		d, problem := parseDirective(tc.in, token.Position{})
		if tc.problem != (problem != "") {
			t.Errorf("parseDirective(%q): problem = %q, want problem=%v", tc.in, problem, tc.problem)
			continue
		}
		if !tc.problem {
			if got := strings.Join(d.rules, ","); got != tc.rules {
				t.Errorf("parseDirective(%q): rules = %q, want %q", tc.in, got, tc.rules)
			}
		}
	}
}

// TestDirectiveAllows covers the rule-list membership check.
func TestDirectiveAllows(t *testing.T) {
	d := directive{rules: []string{RuleWallclock, RuleGlobalRand}}
	if !d.allows(RuleWallclock) || !d.allows(RuleGlobalRand) {
		t.Error("directive must allow every rule in its list")
	}
	if d.allows(RuleHotpath) {
		t.Error("directive must not allow rules outside its list")
	}
}

// findLine returns the 1-based number of the first line of path containing
// substr, so tests can anchor on code shapes instead of line numbers.
func findLine(t *testing.T, path, substr string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, substr) {
			return i + 1
		}
	}
	t.Fatalf("%s: no line contains %q", path, substr)
	return 0
}

// TestTaintCatchesLaunderedSinks is the regression test for the whole point
// of the taint pass: sim-critical code that launders time.Now through a
// local wrapper, a method value or a second wrapper is invisible to the
// per-package analyzers (run with wholeProgram=false) and must be flagged by
// the full Run with the proving chain in the message and in Chain.
func TestTaintCatchesLaunderedSinks(t *testing.T) {
	file := filepath.Join(fixtureRoot, "taint", "taint.go")
	laundered := map[string]int{
		"wrapper call":     findLine(t, file, "wallNow().Sub"),
		"captured sink":    findLine(t, file, "clock := time.Now"),
		"two-deep wrapper": findLine(t, file, "return Uptime(started) * 2"),
	}
	l := fixtureLoader(t)

	direct, err := run(l, DefaultConfig(), []string{"fixture/taint"}, false)
	if err != nil {
		t.Fatal(err)
	}
	onLine := func(diags []Diagnostic, line int) *Diagnostic {
		for i, d := range diags {
			if strings.HasSuffix(d.File, "taint/taint.go") && d.Line == line {
				return &diags[i]
			}
		}
		return nil
	}
	for shape, line := range laundered {
		if d := onLine(direct, line); d != nil {
			t.Errorf("per-package analyzers unexpectedly caught the %s (line %d): %s\n(the taint regression test needs a shape they miss)", shape, line, d)
		}
	}

	full, err := Run(l, DefaultConfig(), []string{"fixture/taint"})
	if err != nil {
		t.Fatal(err)
	}
	for shape, line := range laundered {
		d := onLine(full, line)
		if d == nil {
			t.Errorf("taint pass missed the %s on line %d", shape, line)
			continue
		}
		if d.Rule != RuleWallclock {
			t.Errorf("%s flagged under %s, want %s", shape, d.Rule, RuleWallclock)
		}
	}
	// The two-deep wrapper's diagnostic must carry the full proving chain.
	if d := onLine(full, laundered["two-deep wrapper"]); d != nil {
		const chain = "Doubly -> Uptime -> wallNow -> time.Now"
		if !strings.Contains(d.Message, chain) {
			t.Errorf("chain not rendered in message:\n got %q\nwant substring %q", d.Message, chain)
		}
		if len(d.Chain) != 4 {
			t.Errorf("Chain = %q, want 4 located hops ending in time.Now", d.Chain)
		} else if d.Chain[3] != "time.Now" {
			t.Errorf("Chain ends in %q, want time.Now", d.Chain[3])
		}
	}
}

// TestHotpathChain verifies the hotpath rule connects a root to an
// allocation three calls deep and names the chain.
func TestHotpathChain(t *testing.T) {
	file := filepath.Join(fixtureRoot, "hotpath", "hotpath.go")
	line := findLine(t, file, "buf := make([]float64, 4)")
	diags, err := Run(fixtureLoader(t), DefaultConfig(), []string{"fixture/hotpath"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Line == line && d.Rule == RuleHotpath {
			if !strings.Contains(d.Message, "Demand -> total -> grow") {
				t.Errorf("hotpath chain not rendered: %q", d.Message)
			}
			return
		}
	}
	t.Fatalf("no hotpath finding on line %d (make in grow)", line)
}

// TestRepositoryIsClean lints the real module with the default
// configuration: the tree must stay finding-free (annotated waivers aside).
// This is the in-process version of CI's `go run ./cmd/ecolint ./...` gate.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	l, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(l, DefaultConfig(), []string{"..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
