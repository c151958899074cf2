package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const goodDoc = `# A full-featured scenario document.
name: stencil-burst3
description: burst of 3 flips across the full word
kernel: stencil
size: test
fault: burst3        # trailing comments are stripped
mode: exhaustive
expect:
  experiments: 640
  crash: 100
  max_sdc_pct: 40.5
`

func TestParseGood(t *testing.T) {
	sc, err := Parse([]byte(goodDoc))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "stencil-burst3" || sc.Kernel != "stencil" || sc.Fault != "burst3" {
		t.Fatalf("parsed %+v", sc)
	}
	if sc.Expect.Experiments != 640 || sc.Expect.Crash != 100 {
		t.Fatalf("expect block %+v", sc.Expect)
	}
	if sc.Expect.Masked != Unset || sc.Expect.SDC != Unset {
		t.Fatalf("omitted gates should stay Unset: %+v", sc.Expect)
	}
	if sc.Expect.MaxSDCPct != 40.5 || sc.Expect.MinMaskedPct != Unset {
		t.Fatalf("pct gates %+v", sc.Expect)
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseStrictness(t *testing.T) {
	cases := []struct {
		label string
		doc   string
		want  string
	}{
		{"unknown key", "name: a\nbogus: 1\n", "unknown key"},
		{"duplicate key", "name: a\nname: b\n", "duplicate key"},
		{"duplicate expect key", "expect:\n  sdc: 1\n  sdc: 2\n", "duplicate key"},
		{"indent outside expect", "name: a\n  sdc: 1\n", "outside an expect block"},
		{"wrong indent", "expect:\n   sdc: 1\n", "exactly two spaces"},
		{"expect takes no value", "expect: 3\n", "takes no value"},
		{"no colon", "name\n", "key: value"},
		{"bad int", "samples: many\n", "samples"},
		{"bad seed", "seed: -1\n", "seed"},
		{"expect key at top level", "experiments: 3\n", "unknown key"},
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.doc))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.label, err, c.want)
		}
	}
	// Top-level keys after the expect block close it.
	sc, err := Parse([]byte("expect:\n  sdc: 1\nname: ok\n"))
	if err != nil || sc.Name != "ok" || sc.Expect.SDC != 1 {
		t.Fatalf("block close: %+v, %v", sc, err)
	}
}

func TestValidate(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{Name: "s", Kernel: "stencil", Expect: NewExpect()}
	}
	if err := base().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		label string
		mut   func(*Scenario)
	}{
		{"bad name", func(s *Scenario) { s.Name = "No Caps" }},
		{"no kernel", func(s *Scenario) { s.Kernel = "" }},
		{"unknown kernel", func(s *Scenario) { s.Kernel = "nope" }},
		{"unknown size", func(s *Scenario) { s.Size = "huge" }},
		{"bad fault", func(s *Scenario) { s.Fault = "nonsense" }},
		{"fault too wide", func(s *Scenario) { s.Kernel = "stencil32"; s.Fault = "multi40" }},
		{"bad mode", func(s *Scenario) { s.Mode = "random" }},
		{"sample without budget", func(s *Scenario) { s.Mode = ModeSample }},
		{"sample with both budgets", func(s *Scenario) { s.Mode = ModeSample; s.Samples = 3; s.SampleFrac = 0.1 }},
		{"budget without sample mode", func(s *Scenario) { s.Samples = 3 }},
		{"negative tolerance", func(s *Scenario) { s.Tolerance = -1 }},
		{"negative workers", func(s *Scenario) { s.Workers = -1 }},
		{"pct out of range", func(s *Scenario) { s.Expect.MaxSDCPct = 140 }},
		{"count below -1", func(s *Scenario) { s.Expect.Crash = -3 }},
		{"inconsistent sum", func(s *Scenario) {
			s.Expect.Experiments = 10
			s.Expect.Masked, s.Expect.SDC, s.Expect.Crash = 1, 2, 3
		}},
	}
	for _, c := range cases {
		s := base()
		c.mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: validated", c.label)
		}
	}
	ok := base()
	ok.Mode = ModeSample
	ok.Samples = 5
	ok.Seed = 7
	if err := ok.Validate(); err != nil {
		t.Errorf("sample mode: %v", err)
	}
}

func TestExpectCheck(t *testing.T) {
	e := NewExpect()
	if fails := e.Check(10, 5, 3, 2); len(fails) != 0 {
		t.Fatalf("all-unset expect failed: %v", fails)
	}
	e.Experiments, e.Crash = 10, 2
	if fails := e.Check(10, 5, 3, 2); len(fails) != 0 {
		t.Fatalf("passing gates failed: %v", fails)
	}
	if fails := e.Check(10, 5, 4, 1); len(fails) != 1 {
		t.Fatalf("crash mismatch: %v", fails)
	}
	pct := NewExpect()
	pct.MaxSDCPct = 25
	pct.MinMaskedPct = 50
	if fails := pct.Check(100, 60, 20, 20); len(fails) != 0 {
		t.Fatalf("pct pass: %v", fails)
	}
	if fails := pct.Check(100, 40, 30, 30); len(fails) != 2 {
		t.Fatalf("pct fail: %v", fails)
	}
	// An explicit zero gate is enforced, not treated as unset.
	zero := NewExpect()
	zero.Crash = 0
	if fails := zero.Check(10, 9, 0, 1); len(fails) != 1 {
		t.Fatalf("crash: 0 gate not enforced: %v", fails)
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	write := func(name, doc string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("b.yaml", "name: beta\nkernel: cg\n")
	write("a.yaml", goodDoc)
	write("notes.txt", "not a scenario")
	scs, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 2 || scs[0].Name != "stencil-burst3" || scs[1].Name != "beta" {
		t.Fatalf("loaded %d scenarios: %+v", len(scs), scs)
	}
	write("c.yaml", "name: beta\nkernel: cg\n")
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), "already used") {
		t.Fatalf("duplicate name: %v", err)
	}
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Fatal("empty dir accepted")
	}
}

// FuzzParse feeds arbitrary documents to the scenario parser. Parse must
// return a scenario or an error, never panic, and so must Validate on
// whatever Parse accepts. The seed corpus in testdata/fuzz/FuzzParse
// holds the checked-in scenario files and documents that each break one
// rule of the format.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src []byte) {
		sc, err := Parse(src)
		if err != nil {
			return
		}
		if sc == nil {
			t.Fatal("Parse: nil scenario without error")
		}
		_ = sc.Validate()
	})
}
