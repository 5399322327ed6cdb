package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
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
	_, stderr, code := pbsimOutput(t, dir, args...)
	return stderr, code
}

// pbsimOutput runs the command with args in dir and returns its stdout,
// stderr and exit code.
func pbsimOutput(t *testing.T, dir string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "PBSIM_RUN_MAIN=1")
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	}
	t.Fatal(err)
	return "", "", 0
}

// TestSampleSeries: -sample prints one row per full interval, each at
// an exact multiple of the interval, and the last row shows the PBS
// warm-up finished (nearly every probabilistic branch steered).
func TestSampleSeries(t *testing.T) {
	const interval = 250_000
	stdout, stderr, code := pbsimOutput(t, t.TempDir(), "-workload", "PI", "-pbs", "-sample", strconv.Itoa(interval))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	// The series rows sit between the header and the summary, whose
	// first line starts with "workload".
	series, summary, _ := strings.Cut(stdout, "workload ")
	var rows [][]string
	for _, line := range strings.Split(strings.TrimSpace(series), "\n")[1:] {
		rows = append(rows, strings.Fields(line))
	}
	var retired uint64
	for _, line := range strings.Split(summary, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "instructions" {
			retired, _ = strconv.ParseUint(f[1], 10, 64)
		}
	}
	if retired == 0 {
		t.Fatalf("no instruction count in output:\n%s", stdout)
	}
	if want := int(retired / interval); len(rows) != want {
		t.Fatalf("%d sample rows for %d retired instructions, want %d", len(rows), retired, want)
	}
	for i, r := range rows {
		if len(r) != 6 {
			t.Fatalf("row %d has %d columns, want 6: %q", i, len(r), r)
		}
		if want := strconv.Itoa((i + 1) * interval); r[0] != want {
			t.Errorf("row %d at %s instructions, want %s", i, r[0], want)
		}
	}
	if steered, err := strconv.ParseFloat(rows[len(rows)-1][5], 64); err != nil || steered < 90 {
		t.Errorf("last row steered%% %q, want >= 90", rows[len(rows)-1][5])
	}
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
		{"-scale", "-1"},
		{"-scale", "0"},
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
