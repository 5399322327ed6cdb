package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

// TestMain runs the command itself when PBSTABLES_RUN_MAIN is set, so a
// test can drive pbstables end to end by re-executing the test binary.
// Every artifact then declares no grid and renders its title: what
// prints, and in which order, takes no simulation to check.
func TestMain(m *testing.M) {
	if os.Getenv("PBSTABLES_RUN_MAIN") != "" {
		for i, a := range experiments.Artifacts {
			experiments.Artifacts[i].Grids = nil
			experiments.Artifacts[i].Render = func(experiments.Options, sweep.Results) (experiments.Dataset, error) {
				return title(a.Title), nil
			}
		}
		os.Args = append([]string{"pbstables"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// title is a stub dataset: its text is its artifact's title.
type title string

func (s title) String() string             { return string(s) }
func (title) Measured() map[string]float64 { return nil }

// pbstables runs the command with args and returns its stdout, stderr
// and exit code.
func pbstables(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PBSTABLES_RUN_MAIN=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil && cmd.ProcessState == nil {
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), cmd.ProcessState.ExitCode()
}

// TestPrintsInTableOrder: with no -only every artifact prints, and with
// -only just the named ones; either way in table order, whatever the
// flag's order.
func TestPrintsInTableOrder(t *testing.T) {
	var all strings.Builder
	for _, a := range experiments.Artifacts {
		all.WriteString(a.Title + "\n")
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, all.String()},
		{[]string{"-only", "fig7,fig6"}, "Figure 6: MPKI reduction\nFigure 7: normalized IPC, 4-wide\n"},
	} {
		stdout, stderr, code := pbstables(t, c.args...)
		if code != 0 || stdout != c.want {
			t.Errorf("pbstables %q: exit %d, printed\n%s\nwant\n%s%s", c.args, code, stdout, c.want, stderr)
		}
	}
}

// TestRejectsBadFlags: an unknown -only ID, a seed count outside 1 to
// the default's 7, or a scale below 1 exits 2 before anything prints;
// the message for an unknown ID names it and lists the valid IDs, the
// one for too many seeds names the maximum.
func TestRejectsBadFlags(t *testing.T) {
	var ids []string
	for _, a := range experiments.Artifacts {
		ids = append(ids, a.ID)
	}
	for _, c := range []struct {
		args []string
		want []string
	}{
		{[]string{"-only", "fig6,fig99"}, []string{`"fig99"`, strings.Join(ids, ",")}},
		{[]string{"-seeds", "-1"}, []string{"-seeds"}},
		{[]string{"-seeds", "8"}, []string{"-seeds", "7"}},
		{[]string{"-scale", "-1"}, []string{"-scale"}},
		{[]string{"-scale", "0"}, []string{"-scale"}},
	} {
		stdout, stderr, code := pbstables(t, c.args...)
		if code != 2 || stdout != "" {
			t.Errorf("pbstables %q: exit %d, stdout %q; want exit 2 and no output", c.args, code, stdout)
		}
		for _, want := range c.want {
			if !strings.Contains(stderr, want) {
				t.Errorf("pbstables %q: message does not name %s: %s", c.args, want, stderr)
			}
		}
	}
}
