package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the command itself when PBSIM_RUN_MAIN is set, so a test
// can drive pbsim end to end by re-executing the test binary.
func TestMain(m *testing.M) {
	if os.Getenv("PBSIM_RUN_MAIN") != "" {
		os.Args = append([]string{"pbsim"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// pbsim runs the command with args in dir and returns its stderr and
// exit code.
func pbsim(t *testing.T, dir string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "PBSIM_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stderr.String(), 0
	case errors.As(err, &exit):
		return stderr.String(), exit.ExitCode()
	}
	t.Fatal(err)
	return "", 0
}

// TestResumeRejectsPastCheckpointAt: a resumed run cannot checkpoint at
// or below the position it resumes from, so pbsim refuses such a
// -checkpoint-at up front, naming both counts, and writes nothing.
func TestResumeRejectsPastCheckpointAt(t *testing.T) {
	dir := t.TempDir()
	if stderr, code := pbsim(t, dir, "-workload", "PI", "-pbs", "-checkpoint-out", "a.ckpt", "-checkpoint-at", "100000"); code != 0 {
		t.Fatalf("checkpointing run exited %d: %s", code, stderr)
	}
	for _, at := range []string{"50000", "100000"} {
		stderr, code := pbsim(t, dir, "-cpuprofile", "cpu.prof", "-resume", "a.ckpt", "-checkpoint-out", "b.ckpt", "-checkpoint-at", at)
		if code != 2 || !strings.Contains(stderr, at) || !strings.Contains(stderr, "100000") {
			t.Errorf("-checkpoint-at %s on a run resumed at 100000: exit %d, stderr %q; want exit 2 naming both counts", at, code, stderr)
		}
		if _, err := os.Stat(filepath.Join(dir, "b.ckpt")); err == nil {
			t.Errorf("-checkpoint-at %s wrote a checkpoint", at)
		}
		requireProfile(t, dir, "cpu.prof")
	}
}

// TestFlagErrorsFinishProfiles: a flag error exits 2 only after the
// CPU and heap profiles are written, not leaving an empty CPU profile
// and no heap profile behind.
func TestFlagErrorsFinishProfiles(t *testing.T) {
	for _, args := range [][]string{
		{"-wide", "5"},
		{"-sample-window", "1000"},
		{"-checkpoint-at", "1000"},
	} {
		dir := t.TempDir()
		stderr, code := pbsim(t, dir, append([]string{"-cpuprofile", "cpu.prof", "-memprofile", "mem.prof"}, args...)...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, stderr)
		}
		requireProfile(t, dir, "cpu.prof")
		requireProfile(t, dir, "mem.prof")
	}
}

// requireProfile fails the test unless dir holds a non-empty file name.
func requireProfile(t *testing.T, dir, name string) {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		t.Error(err)
	} else if fi.Size() == 0 {
		t.Errorf("%s is empty", name)
	}
}
