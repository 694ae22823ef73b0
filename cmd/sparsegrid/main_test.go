package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// runCaptured runs the command on args and returns its exit code and what
// it printed on stdout.
func runCaptured(t *testing.T, args ...string) (int, string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	code := run(args)
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

// TestModeValidated: a -mode other than seq, conc or both is a usage error,
// exit 2 before any solve, not a run that solves and prints nothing.
func TestModeValidated(t *testing.T) {
	for _, mode := range []string{"sequential", "", "SEQ", "conc,seq"} {
		if code, out := runCaptured(t, "-mode", mode, "-level", "2"); code != 2 || out != "" {
			t.Errorf("-mode %q: exit %d, stdout %q; want exit 2 and nothing", mode, code, out)
		}
	}
	for mode, want := range map[string][]string{
		"seq":  {"sequential "},
		"conc": {"concurrent "},
		"both": {"sequential ", "concurrent ", "exactly the same"},
	} {
		code, out := runCaptured(t, "-mode", mode, "-root", "1", "-level", "1")
		if code != 0 {
			t.Fatalf("-mode %s: exit %d", mode, code)
		}
		for _, w := range want {
			if !strings.Contains(out, w) {
				t.Errorf("-mode %s: stdout %q lacks %q", mode, out, w)
			}
		}
	}
}
