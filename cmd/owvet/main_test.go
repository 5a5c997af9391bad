package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureModule is the analysis package's miniature module, reused here so
// the driver-level tests exercise real diagnostics.
const fixtureModule = "../../internal/analysis/testdata/src"

func runOwvet(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestLoadErrorExitsTwo pins the failure contract: a module that does not
// parse or type-check is a hard error (exit 2), never a silent pass.
func TestLoadErrorExitsTwo(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module broken\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "broken.go"),
		"package broken\n\nfunc f() int { return undefinedIdent }\n")
	code, _, stderr := runOwvet(t, "-C", dir)
	if code != 2 {
		t.Errorf("exit code = %d for a non-type-checking module, want 2 (stderr: %s)",
			code, stderr)
	}
	if stderr == "" {
		t.Error("load error produced no stderr explanation")
	}
}

// TestFindingsExitOne: the fixture module is full of deliberate violations.
func TestFindingsExitOne(t *testing.T) {
	code, stdout, _ := runOwvet(t, "-C", fixtureModule)
	if code != 1 {
		t.Fatalf("exit code = %d on the fixture module, want 1", code)
	}
	if !strings.Contains(stdout, "[deadtaint]") {
		t.Errorf("fixture run did not report deadtaint findings:\n%s", stdout)
	}
}

// TestListAndUsage: -list succeeds, unknown flags are usage errors.
func TestListAndUsage(t *testing.T) {
	code, stdout, _ := runOwvet(t, "-list")
	if code != 0 {
		t.Errorf("-list exit = %d, want 0", code)
	}
	for _, name := range []string{"deadtaint", "costaccount", "sealedacct"} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list omits %s:\n%s", name, stdout)
		}
	}
	if code, _, _ := runOwvet(t, "-no-such-flag"); code != 2 {
		t.Errorf("unknown flag exit = %d, want 2", code)
	}
	if code, _, _ := runOwvet(t, "-C", fixtureModule, "-enable", "nosuch"); code != 2 {
		t.Errorf("unknown analyzer exit = %d, want 2", code)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
