package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// -update regenerates the golden renderings under testdata.
var update = flag.Bool("update", false, "rewrite golden files")

// pipeline lists every experiment in `ftbcli exp all` order.
var pipeline = []struct {
	name string
	run  func(Scale) (interface{ Render() string }, error)
}{
	{"table1", func(s Scale) (interface{ Render() string }, error) { return Table1(s) }},
	{"figure3", func(s Scale) (interface{ Render() string }, error) { return Figure3(s) }},
	{"figure4", func(s Scale) (interface{ Render() string }, error) { return Figure4(s) }},
	{"table2", func(s Scale) (interface{ Render() string }, error) { return Table2(s) }},
	{"figure5", func(s Scale) (interface{ Render() string }, error) { return Figure5(s) }},
	{"table3", func(s Scale) (interface{ Render() string }, error) { return Table3(s) }},
	{"table4", func(s Scale) (interface{ Render() string }, error) { return Table4(s) }},
	{"monotonic", func(s Scale) (interface{ Render() string }, error) { return Monotonicity(s) }},
	{"baseline", func(s Scale) (interface{ Render() string }, error) { return Baseline(s) }},
	{"ablation", func(s Scale) (interface{ Render() string }, error) { return Ablation(s) }},
	{"sensitivity", func(s Scale) (interface{ Render() string }, error) { return Sensitivity(s) }},
}

// TestPipelineGolden pins the rendering of every table and figure at
// ScaleTest. Three trials exercise campaigns shared beyond trial 0
// (Figure 4's progressive campaign is Table 3's trial 1), so any change
// to which campaigns run, or with which seeds, shows up as a diff.
func TestPipelineGolden(t *testing.T) {
	for _, x := range pipeline {
		res, err := x.run(ScaleTest)
		if err != nil {
			t.Fatalf("%s: %v", x.name, err)
		}
		got := res.Render()
		path := filepath.Join("testdata", x.name+".golden")
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to record)", x.name, err)
		}
		if got != string(want) {
			t.Errorf("%s rendering differs from %s:\n--- got ---\n%s\n--- want ---\n%s", x.name, path, got, want)
		}
	}
}
