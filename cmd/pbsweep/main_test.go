package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when PBSWEEP_RUN_MAIN is set, so a
// test can drive pbsweep end to end by re-executing the test binary.
func TestMain(m *testing.M) {
	if os.Getenv("PBSWEEP_RUN_MAIN") != "" {
		os.Args = append([]string{"pbsweep"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsBadScale: a bad flag value exits 2 before any point runs,
// with a message naming the flag and nothing on stdout.
func TestRejectsBadScale(t *testing.T) {
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-scale", []string{"-scale", "-1"}},
		{"-scale", []string{"-scale", "0"}},
		{"-format", []string{"-format", "xml"}},
		{"-pbs", []string{"-pbs", "maybe"}},
		{"-widths", []string{"-widths", "4,x"}},
		{"-seeds", []string{"-seeds", "1,-2"}},
		{"-variants", []string{"-variants", "plain,bogus"}},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-workloads", "PI"}, c.args...)...)
		cmd.Env = append(os.Environ(), "PBSWEEP_RUN_MAIN=1")
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil && cmd.ProcessState == nil {
			t.Fatal(err)
		}
		if code := cmd.ProcessState.ExitCode(); code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), c.flag) {
			t.Errorf("pbsweep %s: exit %d, stdout %q, stderr %q; want exit 2 naming %s and no output",
				strings.Join(c.args, " "), code, stdout.String(), stderr.String(), c.flag)
		}
	}
}
