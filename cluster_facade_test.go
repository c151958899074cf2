package ftb

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"ftb/internal/cluster"
	"ftb/internal/persist"
)

// clusterTestWorkers serves n in-process HTTP workers for a kernel.
func clusterTestWorkers(t *testing.T, name, size string, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		w, err := cluster.NewWorker(cluster.WorkerConfig{
			Factory: func() Program {
				k, err := NewKernel(name, size)
				if err != nil {
					panic(err)
				}
				return k
			},
			Procs: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

func clusterGTBytes(t *testing.T, gt *GroundTruth) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := persist.SaveGroundTruth(&buf, gt); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// clusterTestAnalysis builds a cg/test analysis with a 2-bit fault model
// so facade cluster tests stay fast.
func clusterTestAnalysis(t *testing.T) *Analysis {
	t.Helper()
	k, err := NewKernel("cg", SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	an, err := NewAnalysis(func() Program {
		kk, err := NewKernel("cg", SizeTest)
		if err != nil {
			panic(err)
		}
		return kk
	}, k.Tolerance(), Options{Bits: 2, Width: k.Width()})
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func TestWithClusterExhaustive(t *testing.T) {
	an := clusterTestAnalysis(t)
	want, err := an.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	urls := clusterTestWorkers(t, "cg", SizeTest, 2)
	got, err := an.Exhaustive(WithCluster(ClusterOptions{Workers: urls, ShardSize: 64}))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clusterGTBytes(t, got), clusterGTBytes(t, want)) {
		t.Fatal("WithCluster ground truth is not byte-identical to in-process")
	}
}

func TestWithClusterUnsupportedMethods(t *testing.T) {
	an, err := NewKernelAnalysis("cg", SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	opt := WithCluster(ClusterOptions{Workers: []string{"http://127.0.0.1:1"}})
	if _, err := an.RunPairs([]Pair{{Site: 0, Bit: 0}}, opt); err == nil || !strings.Contains(err.Error(), "WithCluster") {
		t.Errorf("RunPairs: err = %v, want WithCluster rejection", err)
	}
	if _, err := an.InferBoundary(InferOptions{Samples: 10}, opt); err == nil || !strings.Contains(err.Error(), "WithCluster") {
		t.Errorf("InferBoundary: err = %v, want WithCluster rejection", err)
	}
	if _, err := an.InferFromPairs([]Pair{{Site: 0, Bit: 0}}, false, opt); err == nil || !strings.Contains(err.Error(), "WithCluster") {
		t.Errorf("InferFromPairs: err = %v, want WithCluster rejection", err)
	}
	if _, _, err := an.Progressive(ProgressiveOptions{}, opt); err == nil || !strings.Contains(err.Error(), "WithCluster") {
		t.Errorf("Progressive: err = %v, want WithCluster rejection", err)
	}
	if _, err := an.Exhaustive(opt, WithPropTrace(NewTrajectoryBuffer())); err == nil || !strings.Contains(err.Error(), "WithPropTrace") {
		t.Errorf("Exhaustive+PropTrace: err = %v, want combination rejection", err)
	}
	if _, err := an.Exhaustive(opt, WithoutReplay()); err == nil || !strings.Contains(err.Error(), "WithoutReplay") {
		t.Errorf("Exhaustive+WithoutReplay: err = %v, want combination rejection", err)
	}
	if _, err := an.Exhaustive(WithCluster(ClusterOptions{SelfHost: 2})); err == nil || !strings.Contains(err.Error(), "SelfHostCommand") {
		t.Errorf("SelfHost without command: err = %v, want SelfHostCommand requirement", err)
	}
}
