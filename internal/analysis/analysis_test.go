package analysis

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtureRoot is a miniature module mirroring the repository's layout, so
// the analyzers run with their real package scopes.
const fixtureRoot = "testdata/src"

// wantRe matches `// want `+ backquoted regexp in fixture sources.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

type want struct {
	file string // module-relative
	line int
	re   *regexp.Regexp
}

// collectWants scans every fixture source for want comments.
func collectWants(t *testing.T, root string) []want {
	t.Helper()
	var wants []want
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				return fmt.Errorf("%s:%d: bad want regexp: %v", rel, i+1, err)
			}
			wants = append(wants, want{file: filepath.ToSlash(rel), line: i + 1, re: re})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// TestFixtureDiagnostics runs the whole suite over the fixture module and
// requires an exact match between reported diagnostics and want comments:
// each analyzer both fires where expected and stays quiet where an
// //owvet:allow directive (or compliant code) appears.
func TestFixtureDiagnostics(t *testing.T) {
	diags, err := Run(fixtureRoot, Config{})
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, fixtureRoot)
	if len(wants) == 0 {
		t.Fatal("no want comments found in fixtures")
	}
	matched := make([]bool, len(wants))
outer:
	for _, d := range diags {
		for i, w := range wants {
			if matched[i] || w.file != d.File || w.line != d.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				continue outer
			}
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("missing diagnostic at %s:%d matching %q", w.file, w.line, w.re)
		}
	}
}

// TestEveryAnalyzerFiresAndSuppresses asserts per analyzer that the
// fixtures contain at least one firing diagnostic and at least one
// //owvet:allow directive naming it — the acceptance criteria for the
// suite.
func TestEveryAnalyzerFiresAndSuppresses(t *testing.T) {
	diags, err := Run(fixtureRoot, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fired := make(map[string]bool)
	for _, d := range diags {
		fired[d.Analyzer] = true
	}
	allowed := make(map[string]bool)
	allowRe := regexp.MustCompile(`//owvet:allow ([a-z]+):`)
	err = filepath.WalkDir(fixtureRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range allowRe.FindAllStringSubmatch(string(data), -1) {
			allowed[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range All {
		if !fired[a.Name] {
			t.Errorf("analyzer %s never fired on the fixtures", a.Name)
		}
		if !allowed[a.Name] {
			t.Errorf("analyzer %s has no //owvet:allow suppression fixture", a.Name)
		}
	}
}

// TestEnableDisable checks analyzer selection.
func TestEnableDisable(t *testing.T) {
	only, err := Run(fixtureRoot, Config{Enable: []string{"gopanic"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(only) == 0 {
		t.Fatal("gopanic-only run reported nothing")
	}
	for _, d := range only {
		if d.Analyzer != "gopanic" {
			t.Errorf("enable=gopanic leaked %s diagnostic: %s", d.Analyzer, d)
		}
	}
	without, err := Run(fixtureRoot, Config{Disable: []string{"gopanic"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range without {
		if d.Analyzer == "gopanic" {
			t.Errorf("disable=gopanic still reported: %s", d)
		}
	}
	if _, err := Run(fixtureRoot, Config{Enable: []string{"nosuch"}}); err == nil {
		t.Error("unknown analyzer name not rejected")
	}
}

// TestJSONSchemaStable pins the machine-readable output schema: tooling
// parses this format, so any change here is a deliberate version bump.
func TestJSONSchemaStable(t *testing.T) {
	diags := []Diagnostic{
		{
			Analyzer: "crosskernel",
			File:     "internal/resurrect/engine.go",
			Line:     97,
			Col:      9,
			Message:  "direct phys.Mem.ReadAt bypasses the accounted reader",
		},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, diags); err != nil {
		t.Fatal(err)
	}
	golden := `{
  "version": 1,
  "count": 1,
  "diagnostics": [
    {
      "analyzer": "crosskernel",
      "file": "internal/resurrect/engine.go",
      "line": 97,
      "col": 9,
      "message": "direct phys.Mem.ReadAt bypasses the accounted reader"
    }
  ]
}
`
	if got := buf.String(); got != golden {
		t.Errorf("JSON schema drifted:\ngot:\n%s\nwant:\n%s", got, golden)
	}

	buf.Reset()
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	goldenEmpty := `{
  "version": 1,
  "count": 0,
  "diagnostics": []
}
`
	if got := buf.String(); got != goldenEmpty {
		t.Errorf("empty JSON schema drifted:\ngot:\n%s\nwant:\n%s", got, goldenEmpty)
	}
}

// TestRepoClean runs the full suite over this repository itself: the merged
// tree must be diagnostic-clean, so the determinism and memory-discipline
// invariants hold on every `go test ./...`, not just under `make lint`.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(root, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repository violates its own invariants: %s", d)
	}
}
