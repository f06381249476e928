package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the hgpart executable:
// when re-exec'd with HGPART_MAIN=1 it runs the real CLI body instead
// of the test suite, so every exit-code path is exercised through a
// true process boundary without building a second binary.
func TestMain(m *testing.M) {
	if os.Getenv("HGPART_MAIN") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// execHgpart re-runs this test binary as the hgpart CLI.
func execHgpart(t *testing.T, args ...string) (exitCode int, stdout, stderr string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "HGPART_MAIN=1")
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	err = cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return code, out.String(), errBuf.String()
}

const testNets = `module a
module b
module c
module d
net n1 a b
net n2 b c
net n3 c d
net n4 a d
`

func writeNetlist(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.nets")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The satellite regression: every CLI error path must print to stderr
// and exit non-zero — never a success status with a partial message.
func TestErrorPathsExitNonZeroOnStderr(t *testing.T) {
	valid := writeNetlist(t, testNets)
	cases := []struct {
		name     string
		args     []string
		wantCode int
		inStderr string
	}{
		{"missing -in", nil, 2, "-in is required"},
		{"bad flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{"nonexistent file", []string{"-in", filepath.Join(t.TempDir(), "nope.nets")}, 1, "no such file"},
		{"malformed netlist", []string{"-in", writeNetlist(t, "module a\nfrobnicate a b\n")}, 1, "unknown directive"},
		{"unknown format", []string{"-in", valid, "-format", "xml"}, 1, `unknown format "xml"`},
		{"unknown algo", []string{"-in", valid, "-algo", "quantum"}, 1, `unknown algorithm "quantum"`},
		{"unknown completion", []string{"-in", valid, "-completion", "psychic"}, 1, `unknown completion "psychic"`},
		{"portfolio with k>2", []string{"-in", valid, "-k", "4", "-fallback", "fm"}, 1, "bipartitioning only"},
		{"portfolio unknown tier", []string{"-in", valid, "-fallback", "quantum"}, 1, "quantum"},
		{"portfolio blank tier", []string{"-in", valid, "-fallback", "fm, ,core"}, 1, "algorithm not in registry"},
		{"portfolio trailing comma", []string{"-in", valid, "-algo", "fm", "-fallback", "core,"}, 1, "algorithm not in registry"},
		{"portfolio with completion", []string{"-in", valid, "-fallback", "fm", "-completion", "weighted"}, 1, "-completion cannot be combined with -fallback/-budget"},
		{"budget with vcycle", []string{"-in", valid, "-budget", "2s", "-vcycle=false"}, 1, "-vcycle cannot be combined with -fallback/-budget"},
		{"portfolio with stats", []string{"-in", valid, "-fallback", "fm", "-stats"}, 1, "-stats cannot be combined with -fallback/-budget"},
		{"fm with completion", []string{"-in", valid, "-algo", "fm", "-completion", "weighted", "-threshold", "10"}, 1, "-completion cannot be combined with -algo fm"},
		{"kl with threshold", []string{"-in", valid, "-algo", "kl", "-threshold", "10"}, 1, "-threshold cannot be combined with -algo kl"},
		{"multilevel with objective", []string{"-in", valid, "-algo", "multilevel", "-objective", "quotient"}, 1, "-objective cannot be combined with -algo multilevel"},
		{"algI with vcycle", []string{"-in", valid, "-vcycle=false"}, 1, "-vcycle cannot be combined with -algo algI"},
		{"sa with vcycle", []string{"-in", valid, "-algo", "sa", "-vcycle=false"}, 1, "-vcycle cannot be combined with -algo sa"},
		{"k>2 with algo", []string{"-in", valid, "-k", "4", "-algo", "fm"}, 1, "-algo cannot be combined with -k > 2"},
		{"k>2 with threshold", []string{"-in", valid, "-k", "3", "-threshold", "10"}, 1, "-threshold cannot be combined with -k > 2"},
		{"bad fault spec", []string{"-in", valid, "-faultinject", "explode@nowhere:1"}, 1, `unknown kind "explode"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := execHgpart(t, tc.args...)
			if code != tc.wantCode {
				t.Errorf("exit code = %d, want %d (stderr: %q)", code, tc.wantCode, stderr)
			}
			if !strings.Contains(stderr, tc.inStderr) {
				t.Errorf("stderr = %q, want it to contain %q", stderr, tc.inStderr)
			}
			if strings.Contains(stdout, "cutsize:") {
				t.Errorf("failed run still reported a cut on stdout: %q", stdout)
			}
		})
	}
}

// TestFaultInjectionSkipsStart: an injected engine-start panic is
// survived — the start shows as skipped in -stats, the run exits 0
// with an oracle-verified cut.
func TestFaultInjectionSkipsStart(t *testing.T) {
	code, stdout, stderr := execHgpart(t,
		"-in", writeNetlist(t, testNets), "-algo", "fm", "-starts", "4",
		"-faultinject", "panic@engine.start:1", "-stats", "-verify")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr = %q", code, stderr)
	}
	for _, want := range []string{"1 start(s) panicked and were skipped", "verified:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
}

// TestTuningFlagsReachTheirAlgorithm: the flags refused for other
// algorithms are accepted by the one they tune.
func TestTuningFlagsReachTheirAlgorithm(t *testing.T) {
	nets := writeNetlist(t, testNets)
	for _, args := range [][]string{
		{"-algo", "algI", "-completion", "weighted", "-threshold", "10", "-objective", "quotient"},
		{"-algo", "multilevel", "-vcycle=false"},
	} {
		code, stdout, stderr := execHgpart(t, append([]string{"-in", nets, "-starts", "4", "-verify"}, args...)...)
		if code != 0 {
			t.Errorf("%v: exit code = %d, stderr = %q", args, code, stderr)
		} else if !strings.Contains(stdout, "verified:") {
			t.Errorf("%v: stdout missing %q:\n%s", args, "verified:", stdout)
		}
	}
}

func TestHappyPathExitsZero(t *testing.T) {
	code, stdout, stderr := execHgpart(t, "-in", writeNetlist(t, testNets), "-starts", "4", "-verify")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr = %q", code, stderr)
	}
	for _, want := range []string{"cutsize:", "verified:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
}

// The ISSUE's example invocation: a fallback chain with a wall budget
// runs the portfolio and reports the winning tier.
func TestFallbackBudgetRunsPortfolio(t *testing.T) {
	code, stdout, stderr := execHgpart(t,
		"-in", writeNetlist(t, testNets),
		"-algo", "multilevel", "-fallback", "fm,core", "-budget", "2s",
		"-starts", "4", "-verify")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr = %q", code, stderr)
	}
	for _, want := range []string{"portfolio: chain multilevel -> fm -> core", "winner: tier 0 (multilevel)", "cutsize:", "verified:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
}
