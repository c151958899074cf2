package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ftb"
)

// buildQueryStore populates a fresh store with one completed
// stencil/test campaign — a tiny kernel under the full 64-bit fault
// model, so the store holds a deterministic mix of masked, sdc, and
// crash outcomes for the goldens to pin.
func buildQueryStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st, err := ftb.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	an, err := ftb.NewKernelAnalysis("stencil", ftb.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.Exhaustive(ftb.WithStore(st)); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestCmdQueryGoldenFiles pins the text and -json output of every query
// shape against golden files (the same pattern as the trace exports).
// None of these invocations constructs a kernel or runs an experiment —
// the answers come from the store alone.
func TestCmdQueryGoldenFiles(t *testing.T) {
	dir := buildQueryStore(t)
	cases := []struct {
		name string
		args []string
	}{
		{"query_list.golden", []string{"-store", dir}},
		{"query_summary.golden", []string{"-store", dir, "-campaign", "stencil"}},
		{"query_point.golden", []string{"-store", dir, "-site", "10", "-bit", "62"}},
		{"query_site.golden", []string{"-store", dir, "-site", "10"}},
		{"query_range.golden", []string{"-store", dir, "-sites", "0:20"}},
		{"query_list_json.golden", []string{"-store", dir, "-json"}},
		{"query_summary_json.golden", []string{"-store", dir, "-campaign", "stencil", "-json"}},
		{"query_point_json.golden", []string{"-store", dir, "-site", "10", "-bit", "62", "-json"}},
		{"query_range_json.golden", []string{"-store", dir, "-sites", "0:20", "-json"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := capture(t, func() error { return cmdQuery(context.Background(), tc.args) })
			golden := filepath.Join("testdata", tc.name)
			if *update {
				if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with: go test ./cmd/ftbcli -run CmdQueryGolden -args -update)", err)
			}
			if out != string(want) {
				t.Errorf("output diverged from golden file\ngot:\n%s\nwant:\n%s", out, want)
			}
		})
	}
}

func TestCmdQueryValidation(t *testing.T) {
	dir := buildQueryStore(t)
	if err := cmdQuery(context.Background(), nil); err == nil {
		t.Error("missing -store accepted")
	}
	if err := cmdQuery(context.Background(), []string{"-store", dir, "-campaign", "nope"}); err == nil {
		t.Error("unknown campaign accepted")
	}
	if err := cmdQuery(context.Background(), []string{"-store", dir, "-sites", "10"}); err == nil {
		t.Error("malformed -sites accepted")
	}
	if err := cmdQuery(context.Background(), []string{"-store", dir, "-site", "999999", "-bit", "0"}); err == nil {
		t.Error("out-of-range site accepted")
	}
	if err := cmdQuery(context.Background(), []string{"-store", t.TempDir(), "-site", "1", "-bit", "62"}); err == nil {
		t.Error("query against empty store accepted")
	}
}

// TestServeQueryEndpoints drives /v1/campaigns and every /v1/query shape
// against a live server with a store attached, and pins the 404 when no
// store is attached.
func TestServeQueryEndpoints(t *testing.T) {
	dir := buildQueryStore(t)
	st, err := ftb.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := startServer(ctx, "127.0.0.1:0", ftb.NewCollector(), st)
	if err != nil {
		t.Fatal(err)
	}
	defer s.shutdown()
	base := "http://" + s.addr()

	code, body := get(t, base+"/v1/campaigns")
	if code != 200 {
		t.Fatalf("/v1/campaigns status %d: %s", code, body)
	}
	var list campaignList
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("/v1/campaigns is not valid JSON: %v", err)
	}
	if len(list.Campaigns) != 1 || list.Campaigns[0].Program != "stencil" ||
		list.Campaigns[0].Covered != list.Campaigns[0].Total {
		t.Fatalf("/v1/campaigns = %+v", list)
	}
	campaign := list.Campaigns[0].Campaign

	code, body = get(t, base+"/v1/query?campaign="+campaign+"&site=10&bit=62")
	if code != 200 {
		t.Fatalf("point query status %d: %s", code, body)
	}
	var pt pointResult
	if err := json.Unmarshal([]byte(body), &pt); err != nil {
		t.Fatal(err)
	}
	if !pt.Found || pt.Site != 10 || pt.Bit != 62 || pt.Outcome == "" {
		t.Errorf("point result %+v", pt)
	}

	code, body = get(t, base+"/v1/query?lo=0&hi=20")
	if code != 200 {
		t.Fatalf("range query status %d: %s", code, body)
	}
	var rr rangeResult
	if err := json.Unmarshal([]byte(body), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Masked+rr.SDC+rr.Crash != 20*64 || rr.Missing != 0 {
		t.Errorf("range result %+v, want 20 sites × 64 bits classified", rr)
	}

	code, body = get(t, base+"/v1/query")
	if code != 200 {
		t.Fatalf("summary query status %d: %s", code, body)
	}
	var sum summaryDoc
	if err := json.Unmarshal([]byte(body), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Program != "stencil" || int64(sum.Masked+sum.SDC+sum.Crash) != sum.Total {
		t.Errorf("summary %+v", sum)
	}

	if code, body := get(t, base+"/v1/query?site=zzz"); code != 400 {
		t.Errorf("bad site parameter: status %d: %s", code, body)
	}
	if code, body := get(t, base+"/v1/query?lo=0"); code != 400 {
		t.Errorf("lo without hi: status %d: %s", code, body)
	}
	if code, body := get(t, base+"/v1/query?campaign=nope"); code != 404 {
		t.Errorf("unknown campaign: status %d: %s", code, body)
	}

	// Without a store the /v1 endpoints answer 404.
	bare, err := startServer(ctx, "127.0.0.1:0", ftb.NewCollector(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.shutdown()
	if code, _ := get(t, "http://"+bare.addr()+"/v1/query"); code != 404 {
		t.Errorf("no-store /v1/query status %d", code)
	}
	if code, _ := get(t, "http://"+bare.addr()+"/v1/campaigns"); code != 404 {
		t.Errorf("no-store /v1/campaigns status %d", code)
	}
}

// TestCmdExhaustiveStoreFlag runs exhaustive -store end to end, then
// answers a query from the produced store.
func TestCmdExhaustiveStoreFlag(t *testing.T) {
	dir := t.TempDir()
	out := capture(t, func() error {
		return cmdExhaustive(context.Background(), []string{"-kernel", "stencil", "-size", "test",
			"-store", dir})
	})
	if !strings.Contains(out, "exhaustive campaign") {
		t.Errorf("output:\n%s", out)
	}
	out = capture(t, func() error {
		return cmdQuery(context.Background(), []string{"-store", dir})
	})
	if !strings.Contains(out, "campaigns: 1") || !strings.Contains(out, "stencil") {
		t.Errorf("query output:\n%s", out)
	}
	// A second run resumes from the fully-covered store: still correct.
	out = capture(t, func() error {
		return cmdExhaustive(context.Background(), []string{"-kernel", "stencil", "-size", "test",
			"-store", dir})
	})
	if !strings.Contains(out, "exhaustive campaign") {
		t.Errorf("rerun output:\n%s", out)
	}
}

// TestCmdExhaustiveBatchFlag: -batch is the -store append stride, so it
// must change how many appends a fresh store takes, and without -store
// it has nothing to set and is rejected.
func TestCmdExhaustiveBatchFlag(t *testing.T) {
	appends := func(batch string) int64 {
		path := filepath.Join(t.TempDir(), "metrics.json")
		capture(t, func() error {
			return cmdExhaustive(context.Background(), []string{"-kernel", "stencil", "-size", "test",
				"-store", t.TempDir(), "-batch", batch, "-metrics", path})
		})
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var snap ftb.MetricsSnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		return snap.Store.Appends
	}
	fine, coarse := appends("1"), appends("100000")
	if coarse != 1 || fine <= coarse {
		t.Errorf("appends: -batch 1 took %d, -batch 100000 took %d; want one final append for the coarse stride and more for the fine one", fine, coarse)
	}
	err := cmdExhaustive(context.Background(), []string{"-kernel", "stencil", "-size", "test", "-batch", "4"})
	if err == nil || !strings.Contains(err.Error(), "-store") {
		t.Errorf("-batch without -store: err = %v, want a rejection naming -store", err)
	}
}
