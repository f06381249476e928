package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// crashNets is large enough that every algorithm has real work per
// start and connected so algI takes the engine path (a disconnected
// input is solved by zero-cut packing without journaling).
const crashNets = `module m0
module m1
module m2
module m3
module m4
module m5
module m6
module m7
module m8
module m9
module m10
module m11
net n0 m0 m1 m2
net n1 m2 m3
net n2 m3 m4 m5
net n3 m5 m6
net n4 m6 m7 m8
net n5 m8 m9
net n6 m9 m10 m11
net n7 m11 m0
net n8 m1 m6 m10
net n9 m4 m7
`

// crashAlgos is every registry algorithm, by its CLI name.
var crashAlgos = []string{"algI", "multilevel", "kl", "fm", "sa", "flow", "spectral", "random"}

// resultOf extracts the lines that define the partitioning outcome —
// the cut and every module's side — from hgpart's stdout.
func resultOf(t *testing.T, stdout string) string {
	t.Helper()
	cut := regexp.MustCompile(`(?m)^cutsize: .*$`).FindString(stdout)
	sides := regexp.MustCompile(`(?m)^  m\d+ [LR]$`).FindAllString(stdout, -1)
	if cut == "" || len(sides) != 12 {
		t.Fatalf("stdout missing cut or sides:\n%s", stdout)
	}
	return cut + "\n" + strings.Join(sides, "\n")
}

// startHgpart launches the re-exec'd CLI without waiting for it.
func startHgpart(t *testing.T, env []string, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(append(os.Environ(), "HGPART_MAIN=1"), env...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// TestCrashResumeIsBitForBitIdentical is the chaos test: for every
// registry algorithm, a checkpointed run is SIGKILLed mid-run — no
// defers, no atexit, exactly what a power cut or OOM kill looks like —
// and then resumed. The resumed run must report the exact cut and side
// assignment of an uninterrupted run. The assertion holds for any kill
// timing (including "the run already finished"), so the test cannot
// flake on scheduling: whatever prefix of starts survived in the
// journal, the resume completes the rest and the deterministic engine
// guarantees the same winner.
func TestCrashResumeIsBitForBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills processes")
	}
	nets := writeNetlist(t, crashNets)
	for _, algo := range crashAlgos {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			common := []string{"-in", nets, "-algo", algo, "-starts", "6", "-seed", "5", "-v"}

			// Reference: one uninterrupted, uncheckpointed run.
			code, refOut, refErr := execHgpart(t, common...)
			if code != 0 {
				t.Fatalf("reference run failed: %s", refErr)
			}
			want := resultOf(t, refOut)

			// Victim: checkpointed, serialized, slowed to ~120ms per
			// start so the kill lands mid-run, then SIGKILLed.
			ckpt := filepath.Join(dir, "run.ckpt")
			victim := startHgpart(t, []string{"FASTHGP_FAULTS=latency@engine.start:*=120ms"},
				append(common, "-checkpoint", ckpt, "-parallel", "1")...)
			time.Sleep(300 * time.Millisecond)
			if err := victim.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			_ = victim.Wait()

			// Resume: must exit 0 with the reference result, verified.
			args := append(common, "-checkpoint", ckpt, "-resume", "-verify", "-stats")
			code, out, stderr := execHgpart(t, args...)
			if code != 0 {
				t.Fatalf("resume failed: %s", stderr)
			}
			if got := resultOf(t, out); got != want {
				t.Errorf("resumed result differs from uninterrupted run:\ngot:\n%s\nwant:\n%s", got, want)
			}
			if !strings.Contains(out, "checkpoint: journal") {
				t.Errorf("resume did not report the journal:\n%s", out)
			}
			if !strings.Contains(out, "verified:") {
				t.Errorf("resume result not verified:\n%s", out)
			}
		})
	}
}

// outcomeOf is resultOf plus the engine's per-start cuts and winning
// start from -stats output.
func outcomeOf(t *testing.T, stdout string) string {
	t.Helper()
	best := regexp.MustCompile(`best at start \d+`).FindString(stdout)
	cuts := regexp.MustCompile(`(?m)^engine: per-start cuts: .*$`).FindString(stdout)
	if best == "" || cuts == "" {
		t.Fatalf("stdout missing engine stats:\n%s", stdout)
	}
	return resultOf(t, stdout) + "\n" + best + "\n" + cuts
}

// TestTimedOutRunResumesToUninterruptedResult: a start slowed past the
// -timeout returns its best-so-far result; the journal must not keep
// it as that start's outcome, so the resume without a timeout matches
// an uninterrupted run in cut, sides and every start's cut.
func TestTimedOutRunResumesToUninterruptedResult(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes that sleep on injected latency")
	}
	nets := writeNetlist(t, crashNets)
	for _, algo := range crashAlgos {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			t.Parallel()
			common := []string{"-in", nets, "-algo", algo, "-starts", "4", "-seed", "5", "-parallel", "1", "-stats", "-v"}
			code, refOut, refErr := execHgpart(t, common...)
			if code != 0 {
				t.Fatalf("reference run failed: %s", refErr)
			}
			ckpt := filepath.Join(t.TempDir(), "run.ckpt")
			victim := startHgpart(t, []string{"FASTHGP_FAULTS=latency@engine.start:*=200ms"},
				append(common, "-timeout", "50ms", "-checkpoint", ckpt)...)
			if err := victim.Wait(); err != nil {
				t.Fatalf("timed-out run failed: %v", err)
			}
			code, out, stderr := execHgpart(t, append(common, "-checkpoint", ckpt, "-resume")...)
			if code != 0 {
				t.Fatalf("resume failed: %s", stderr)
			}
			if got, want := outcomeOf(t, out), outcomeOf(t, refOut); got != want {
				t.Errorf("resumed run differs from uninterrupted run:\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestCheckpointFlagValidation covers the flag-combination errors. A
// checkpointed run goes through the algorithm registry, which runs
// Algorithm I and multilevel with their defaults, so the flags that
// tune them are refused rather than dropped.
func TestCheckpointFlagValidation(t *testing.T) {
	nets := writeNetlist(t, testNets)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	cases := []struct {
		name     string
		args     []string
		inStderr string
	}{
		{"resume without checkpoint", []string{"-in", nets, "-resume"}, "-resume requires -checkpoint"},
		{"checkpoint with fallback", []string{"-in", nets, "-checkpoint", "x.ckpt", "-fallback", "fm"}, "cannot be combined"},
		{"checkpoint with k>2", []string{"-in", nets, "-checkpoint", "x.ckpt", "-k", "4"}, "bipartitioning only"},
		{"checkpoint with completion", []string{"-in", nets, "-checkpoint", ckpt, "-completion", "weighted"}, "-completion cannot be combined with -checkpoint"},
		{"checkpoint with threshold", []string{"-in", nets, "-checkpoint", ckpt, "-threshold", "10"}, "-threshold cannot be combined with -checkpoint"},
		{"checkpoint with objective", []string{"-in", nets, "-checkpoint", ckpt, "-objective", "quotient"}, "-objective cannot be combined with -checkpoint"},
		{"checkpoint with vcycle", []string{"-in", nets, "-algo", "multilevel", "-checkpoint", ckpt, "-vcycle=false"}, "-vcycle cannot be combined with -checkpoint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := execHgpart(t, tc.args...)
			if code != 1 {
				t.Errorf("exit code = %d, want 1", code)
			}
			if !strings.Contains(stderr, tc.inStderr) {
				t.Errorf("stderr = %q, want it to contain %q", stderr, tc.inStderr)
			}
		})
	}
}

// TestCheckpointForeignJournalRefused: resuming someone else's journal
// is an error, not a silently wrong result.
func TestCheckpointForeignJournalRefused(t *testing.T) {
	nets := writeNetlist(t, crashNets)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	if code, _, stderr := execHgpart(t, "-in", nets, "-algo", "fm", "-starts", "4", "-seed", "1", "-checkpoint", ckpt); code != 0 {
		t.Fatalf("seed run failed: %s", stderr)
	}
	code, _, stderr := execHgpart(t, "-in", nets, "-algo", "fm", "-starts", "4", "-seed", "2", "-checkpoint", ckpt, "-resume")
	if code != 1 || !strings.Contains(stderr, "different run") {
		t.Errorf("foreign journal: exit %d, stderr %q", code, stderr)
	}
}

// TestCheckpointResumeSkipsCompletedStarts resumes a finished journal
// and requires the engine to re-run nothing.
func TestCheckpointResumeSkipsCompletedStarts(t *testing.T) {
	nets := writeNetlist(t, crashNets)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	args := []string{"-in", nets, "-algo", "kl", "-starts", "5", "-seed", "3", "-checkpoint", ckpt}
	if code, _, stderr := execHgpart(t, args...); code != 0 {
		t.Fatalf("first run failed: %s", stderr)
	}
	code, out, stderr := execHgpart(t, append(args, "-resume", "-stats")...)
	if code != 0 {
		t.Fatalf("resume failed: %s", stderr)
	}
	want := fmt.Sprintf("resumed %d of %d starts", 5, 5)
	if !strings.Contains(out, want) {
		t.Errorf("stdout missing %q:\n%s", want, out)
	}
	if !strings.Contains(out, "[5 start(s) resumed from the checkpoint journal]") {
		t.Errorf("-stats missing resumed marker:\n%s", out)
	}
}

// TestCrashResumeConstrainedIsBitForBitIdentical repeats the chaos test
// under the unified balance contract: ε=0.2 with m0 pinned Left and m11
// pinned Right via an hMETIS fix file. The journal binds to the
// constraint, the kill lands mid-run, and the resume must reproduce the
// uninterrupted constrained result exactly — with the verifier
// certifying the constraint on the way out.
func TestCrashResumeConstrainedIsBitForBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills processes")
	}
	nets := writeNetlist(t, crashNets)
	fixFile := filepath.Join(t.TempDir(), "pins.fix")
	fix := "0\n" + strings.Repeat("-1\n", 10) + "1\n" // m0 Left, m11 Right
	if err := os.WriteFile(fixFile, []byte(fix), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, algo := range crashAlgos {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			common := []string{"-in", nets, "-algo", algo, "-starts", "6", "-seed", "5",
				"-epsilon", "0.2", "-fixed", fixFile, "-v"}

			code, refOut, refErr := execHgpart(t, common...)
			if code != 0 {
				t.Fatalf("reference run failed: %s", refErr)
			}
			want := resultOf(t, refOut)
			if !strings.Contains(refOut, "m0 L") || !strings.Contains(refOut, "m11 R") {
				t.Fatalf("reference run ignored the pins:\n%s", refOut)
			}

			ckpt := filepath.Join(dir, "run.ckpt")
			victim := startHgpart(t, []string{"FASTHGP_FAULTS=latency@engine.start:*=120ms"},
				append(common, "-checkpoint", ckpt, "-parallel", "1")...)
			time.Sleep(300 * time.Millisecond)
			if err := victim.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			_ = victim.Wait()

			args := append(common, "-checkpoint", ckpt, "-resume", "-verify", "-stats")
			code, out, stderr := execHgpart(t, args...)
			if code != 0 {
				t.Fatalf("resume failed: %s", stderr)
			}
			if got := resultOf(t, out); got != want {
				t.Errorf("resumed constrained result differs:\ngot:\n%s\nwant:\n%s", got, want)
			}
			if !strings.Contains(out, "[constraint satisfied]") {
				t.Errorf("resume result not certified against the constraint:\n%s", out)
			}
		})
	}
}

// TestCheckpointConstraintMismatchRefused: a journal written under one
// balance contract refuses to resume under another.
func TestCheckpointConstraintMismatchRefused(t *testing.T) {
	nets := writeNetlist(t, crashNets)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	common := []string{"-in", nets, "-algo", "fm", "-starts", "4", "-seed", "1", "-checkpoint", ckpt}
	if code, _, stderr := execHgpart(t, append(common, "-epsilon", "0.1")...); code != 0 {
		t.Fatalf("seed run failed: %s", stderr)
	}
	code, _, stderr := execHgpart(t, append(common, "-epsilon", "0.3", "-resume")...)
	if code != 1 || !strings.Contains(stderr, "different run") {
		t.Errorf("constraint-mismatched journal: exit %d, stderr %q", code, stderr)
	}
}
