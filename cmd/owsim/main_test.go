package main

import (
	"bytes"
	"strings"
	"testing"
)

func runOwsim(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestBadInvocationsExit2 requires every invocation owsim cannot run to be
// refused with exit 2 before anything runs: nothing on stdout, and the
// reason on stderr. Exit 1 is for a demo that ran and failed.
func TestBadInvocationsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fleet", "-3"}, "-fleet -3"},
		{[]string{"-tiers", "sh=1"}, "-tiers"},
		{[]string{"-fleet-batch"}, "-fleet-batch"},
		{[]string{"-resurrect-workers", "4"}, "-resurrect-workers"},
		{[]string{"-fleet", "4", "-tiers", "nonsense"}, "nonsense"},
		{[]string{"-app", "nosuch"}, `unknown application "nosuch"`},
		{[]string{"extra"}, "extra"},
		{[]string{"-bogus"}, "-bogus"},
	} {
		if code, out, errw := runOwsim(tc.args...); code != 2 || out != "" || !strings.Contains(errw, tc.want) {
			t.Errorf("%v: exit %d stdout %q stderr %q; want exit 2 and %q", tc.args, code, out, errw, tc.want)
		}
	}
	if code, _, errw := runOwsim("-h"); code != 0 || !strings.Contains(errw, "-fleet") {
		t.Errorf("-h: exit %d stderr %q; want exit 0 and the flag list", code, errw)
	}
}

// TestDefaultDemoRuns drives the default single-application demo, which
// must exit 0 and narrate to the writer run is given.
func TestDefaultDemoRuns(t *testing.T) {
	code, out, errw := runOwsim()
	if code != 0 || errw != "" {
		t.Fatalf("exit %d stderr %q", code, errw)
	}
	for _, want := range []string{"== Otherworld demo: MySQL (seed 2010", "machine booted", "injected 30 faults"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stdout lacks %q:\n%s", want, out)
		}
	}
}
