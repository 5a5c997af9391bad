package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadInputs: each invocation is refused with exit 2 before any
// experiment runs. An unknown application used to run, and its setup error
// was tallied as a 100% resurrection failure.
func TestBadInputs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-apps", "vi,nosuch", "-n", "2"}, `unknown application "nosuch"`},
		{[]string{"-hardening", "partial"}, "-hardening must be on or off"},
		{[]string{"-no-such-flag"}, "-no-such-flag"},
	} {
		var out, errw bytes.Buffer
		if code := run(tc.args, &out, &errw); code != 2 || out.Len() != 0 ||
			!strings.Contains(errw.String(), tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and %q",
				tc.args, code, out.String(), errw.String(), tc.want)
		}
	}
}
