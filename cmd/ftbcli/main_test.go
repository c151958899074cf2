package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		buf := make([]byte, 0, 4096)
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(buf)
	}()
	errRun := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if errRun != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", errRun, out)
	}
	return out
}

func TestCmdKernels(t *testing.T) {
	out := capture(t, cmdKernels)
	for _, want := range []string{"cg", "lu", "fft", "stencil", "matvec", "spmv", "matmul", "sizes"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output", want)
		}
	}
}

func TestCmdGolden(t *testing.T) {
	out := capture(t, func() error {
		return cmdGolden([]string{"-kernel", "cg", "-size", "test"})
	})
	for _, want := range []string{"dynamic instructions", "zero-init", "iter-0"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestCmdExhaustiveAndShow(t *testing.T) {
	dir := t.TempDir()
	gtPath := filepath.Join(dir, "gt.ftb")
	out := capture(t, func() error {
		return cmdExhaustive(context.Background(), []string{"-kernel", "stencil", "-size", "test", "-save", gtPath})
	})
	if !strings.Contains(out, "exhaustive campaign") || !strings.Contains(out, "saved ground truth") {
		t.Errorf("output:\n%s", out)
	}
	out = capture(t, func() error { return cmdShow([]string{gtPath}) })
	if !strings.Contains(out, "ground truth") {
		t.Errorf("show output:\n%s", out)
	}
}

func TestCmdInferWithEvaluateAndSave(t *testing.T) {
	dir := t.TempDir()
	bdPath := filepath.Join(dir, "bd.ftb")
	out := capture(t, func() error {
		return cmdInfer(context.Background(), []string{"-kernel", "stencil", "-size", "test",
			"-frac", "0.1", "-filter", "-evaluate", "-save", bdPath})
	})
	for _, want := range []string{"inferred boundary", "predicted SDC", "uncertainty", "precision"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	out = capture(t, func() error { return cmdShow([]string{bdPath}) })
	if !strings.Contains(out, "fault tolerance boundary") {
		t.Errorf("show output:\n%s", out)
	}
}

func TestCmdProgressive(t *testing.T) {
	out := capture(t, func() error {
		return cmdProgressive(context.Background(), []string{"-kernel", "stencil", "-size", "test",
			"-round", "0.02", "-adaptive"})
	})
	for _, want := range []string{"progressive sampling", "round", "predicted SDC"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestCmdExpSingle(t *testing.T) {
	out := capture(t, func() error {
		return cmdExp(context.Background(), []string{"table1", "-size", "test", "-trials", "2"})
	})
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "completed in") {
		t.Errorf("output:\n%s", out)
	}
}

func TestCmdExpUnknown(t *testing.T) {
	if err := cmdExp(context.Background(), []string{"tableX"}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := cmdExp(context.Background(), nil); err == nil {
		t.Error("missing experiment name accepted")
	}
}

func TestCmdExhaustiveCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := cmdExhaustive(ctx, []string{"-kernel", "stencil", "-size", "test"})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled exhaustive returned %v, want context.Canceled", err)
	}
}

// TestCmdExhaustiveNoReplayClusterRejected: cluster workers always
// replay, so -noreplay under -selfhost fails before any worker spawns
// instead of being silently ignored.
func TestCmdExhaustiveNoReplayClusterRejected(t *testing.T) {
	err := cmdExhaustive(context.Background(), []string{"-kernel", "cg", "-size", "test", "-noreplay", "-selfhost", "1"})
	if err == nil || !strings.Contains(err.Error(), "WithoutReplay cannot be combined with WithCluster") {
		t.Errorf("exhaustive -noreplay -selfhost 1 returned %v, want the combination rejected", err)
	}
}

func TestCmdInferProgressFlag(t *testing.T) {
	out := capture(t, func() error {
		return cmdInfer(context.Background(), []string{"-kernel", "stencil", "-size", "test",
			"-frac", "0.1", "-progress"})
	})
	if !strings.Contains(out, "inferred boundary") {
		t.Errorf("output:\n%s", out)
	}
}

func TestCmdShowErrors(t *testing.T) {
	if err := cmdShow(nil); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, []byte("not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdShow([]string{junk}); err == nil {
		t.Error("junk file accepted")
	}
}

func TestCmdPropagate(t *testing.T) {
	out := capture(t, func() error {
		return cmdPropagate([]string{"-kernel", "stencil", "-size", "test", "-bit", "40"})
	})
	for _, want := range []string{"log10", "outcome:", "tolerance"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestCmdPropagateValidation(t *testing.T) {
	if err := cmdPropagate([]string{"-kernel", "stencil", "-size", "test", "-site", "999999"}); err == nil {
		t.Error("out-of-range site accepted")
	}
	if err := cmdPropagate([]string{"-kernel", "stencil32", "-size", "test", "-bit", "40"}); err == nil {
		t.Error("bit 40 against 32-bit kernel accepted")
	}
}

func TestCmdReport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.md")
	out := capture(t, func() error {
		return cmdReport(context.Background(), []string{"-kernel", "stencil", "-size", "test",
			"-frac", "0.1", "-evaluate", "-o", path})
	})
	if !strings.Contains(out, "wrote report") {
		t.Errorf("output:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# Resiliency report", "Vulnerability by phase", "Evaluation against"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestCmdCompare(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.ftb"), filepath.Join(dir, "b.ftb")
	if err := cmdInfer(context.Background(), []string{"-kernel", "stencil", "-size", "test", "-frac", "0.05", "-seed", "1", "-save", a}); err != nil {
		t.Fatal(err)
	}
	if err := cmdInfer(context.Background(), []string{"-kernel", "stencil", "-size", "test", "-frac", "0.20", "-seed", "2", "-save", b}); err != nil {
		t.Fatal(err)
	}
	out := capture(t, func() error { return cmdCompare([]string{a, b}) })
	for _, want := range []string{"boundaries over", "identical thresholds", "wider"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if err := cmdCompare([]string{a}); err == nil {
		t.Error("single-arg compare accepted")
	}
}
