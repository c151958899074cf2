package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"ftb"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestServeEndpoints drives the three endpoint families against a live
// server fed by a real (tiny) campaign.
func TestServeEndpoints(t *testing.T) {
	col := ftb.NewCollector()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := startServer(ctx, "127.0.0.1:0", col, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.shutdown()
	base := "http://" + s.addr()

	an, err := ftb.NewKernelAnalysis("stencil", ftb.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.Exhaustive(ftb.WithCollector(col), ftb.WithObserver(s)); err != nil {
		t.Fatal(err)
	}

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{"ftb_experiments_total", "ftb_outcomes_total", "ftb_trajectories_total"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = get(t, base+"/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress status %d", code)
	}
	var doc struct {
		ElapsedSeconds float64         `json:"elapsed_seconds"`
		Phases         []phaseProgress `json:"phases"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/progress is not valid JSON: %v\n%s", err, body)
	}
	if len(doc.Phases) != 1 || doc.Phases[0].Phase != "exhaustive" {
		t.Fatalf("/progress phases = %+v", doc.Phases)
	}
	ph := doc.Phases[0]
	if ph.Done != ph.Total || ph.Frontier != ph.Total || ph.Total != an.SampleSpace() {
		t.Errorf("final progress %+v, want done=frontier=total=%d", ph, an.SampleSpace())
	}
	if ph.Masked+ph.SDC+ph.Crash != ph.Total {
		t.Errorf("outcome counts %+v do not sum to total", ph)
	}

	if code, _ := get(t, base+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", code)
	}
	if code, body := get(t, base+"/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ status %d", code)
	}
}

// TestServeShutdownOnCancel checks the Ctrl-C path: cancelling the
// command context stops the listener within the bounded shutdown
// window.
func TestServeShutdownOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s, err := startServer(ctx, "127.0.0.1:0", ftb.NewCollector(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, "http://"+s.addr()+"/progress"); code != http.StatusOK {
		t.Fatalf("server not serving before cancel: %d", code)
	}
	cancel()
	select {
	case <-s.served:
	case <-time.After(5 * time.Second):
		t.Fatal("server did not stop within 5s of context cancellation")
	}
	// Probe with a new connection. http.Get would reuse the default
	// transport's keep-alive connection from the request above, and
	// served closes when the listener does, before Shutdown has closed
	// idle connections: a request on that old connection can still be
	// answered while the server drains, although nothing new is accepted.
	if c, err := net.DialTimeout("tcp", s.addr(), time.Second); err == nil {
		c.Close()
		t.Error("server still accepting connections after shutdown")
	}
}

// TestServeShutdownIdempotent: end() and the context watcher can race
// to shut down; both paths must be safe.
func TestServeShutdownIdempotent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := startServer(ctx, "127.0.0.1:0", ftb.NewCollector(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s.shutdown()
	s.shutdown()
	cancel()
}

// TestCmdExhaustiveServeFlag runs a whole command with -serve wired in:
// the campaign must succeed and leave no server behind.
func TestCmdExhaustiveServeFlag(t *testing.T) {
	out := capture(t, func() error {
		return cmdExhaustive(context.Background(), []string{"-kernel", "stencil", "-size", "test",
			"-serve", "127.0.0.1:0"})
	})
	if !strings.Contains(out, "exhaustive campaign") {
		t.Errorf("output:\n%s", out)
	}
}

// TestSetupLogger pins the level selection: default warn, -v debug,
// FTB_LOG overrides the default but not -v.
func TestSetupLogger(t *testing.T) {
	if l := setupLogger(false); l.Enabled(context.Background(), 0) { // 0 = Info
		t.Error("default logger enables Info")
	}
	if l := setupLogger(true); !l.Enabled(context.Background(), -4) { // -4 = Debug
		t.Error("-v logger does not enable Debug")
	}
	t.Setenv("FTB_LOG", "debug")
	if l := setupLogger(false); !l.Enabled(context.Background(), -4) {
		t.Error("FTB_LOG=debug not honored")
	}
	t.Setenv("FTB_LOG", "error")
	if l := setupLogger(true); !l.Enabled(context.Background(), -4) {
		t.Error("-v must win over FTB_LOG")
	}
	t.Setenv("FTB_LOG", "bogus")
	if l := setupLogger(false); l.Enabled(context.Background(), 0) {
		t.Error("bad FTB_LOG changed the level")
	}
}
