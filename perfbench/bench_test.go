package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// testEnv is an untraced test-scale repetition at the default seed,
// checked against refs.
func testEnv(t *testing.T, workload string, refs references) *runEnv {
	t.Helper()
	return &runEnv{
		name: workload, seed: 1, scale: scaleTest, sizes: scales[scaleTest],
		refs: refs, start: time.Now(), scratch: t.TempDir(),
	}
}

// TestReferencesPass runs every workload at test scale against the
// recorded references: nothing fails at this commit.
func TestReferencesPass(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range workloads {
		e := testEnv(t, name, refs)
		if err := w(e); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e.attempted == 0 || len(e.failures) != 0 {
			t.Errorf("%s: %d attempted, failures %q", name, e.attempted, e.failures)
		}
	}
}

// TestPerturbedReferenceFails flips one digest per workload: the
// operation it belongs to must be reported as failed, and no other.
func TestPerturbedReferenceFails(t *testing.T) {
	for name, w := range workloads {
		refs, err := loadReferences()
		if err != nil {
			t.Fatal(err)
		}
		scopes := refs[name][scaleTest]
		if len(scopes) == 0 {
			t.Fatalf("%s: no test-scale reference", name)
		}
		scope := scopes[firstKey(scopes)]
		label := firstKey(scope)
		scope[label] = strings.Repeat("0", len(scope[label]))
		e := testEnv(t, name, refs)
		if err := w(e); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(e.failures) != 1 || !strings.HasPrefix(e.failures[0], label+":") {
			t.Errorf("%s with %s perturbed: failures %q, want exactly %s", name, label, e.failures, label)
		}
	}
}

// firstKey is the smallest key of a non-empty map.
func firstKey[V any](m map[string]V) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys[0]
}

// TestLayerNamesMatchBenchmark keeps the per-layer metrics ftbbench
// emits in step with BENCHMARK.json (run.py computes the tracing
// overhead itself).
func TestLayerNamesMatchBenchmark(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range spec.PerLayer {
		if m.Name != "obs.overhead_pct" {
			want = append(want, m.Name)
		}
	}
	got := layerNames(scales[scaleFull])
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("layerNames = %v\nBENCHMARK.json per_layer = %v", got, want)
	}
}
