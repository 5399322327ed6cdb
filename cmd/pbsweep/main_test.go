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

// TestRejectsBadScale: a -scale below 1 exits 2 before any point runs,
// with a message naming the flag.
func TestRejectsBadScale(t *testing.T) {
	for _, scale := range []string{"-1", "0"} {
		cmd := exec.Command(os.Args[0], "-workloads", "PI", "-scale", scale)
		cmd.Env = append(os.Environ(), "PBSWEEP_RUN_MAIN=1")
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil && cmd.ProcessState == nil {
			t.Fatal(err)
		}
		if code := cmd.ProcessState.ExitCode(); code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "-scale") {
			t.Errorf("pbsweep -scale %s: exit %d, stdout %q, stderr %q; want exit 2 naming -scale and no output",
				scale, code, stdout.String(), stderr.String())
		}
	}
}
