package ftb

import (
	"fmt"

	"ftb/internal/kernels"
	"ftb/internal/rng"
	"ftb/internal/sampling"
	"ftb/internal/scenario"
)

// Scenario types, re-exported from the internal implementation.
type (
	// Scenario is one declarative fault scenario: a kernel, a size
	// preset, a fault model, a campaign mode with a fixed seed, and the
	// gates the campaign outcome must pass. Load them from checked-in
	// YAML files with LoadScenario / LoadScenarioDir and execute them
	// with RunScenario.
	Scenario = scenario.Scenario
	// ScenarioExpect is a scenario's gate block (exact outcome counts
	// and percentage bounds).
	ScenarioExpect = scenario.Expect
)

// Scenario campaign modes.
const (
	ScenarioExhaustive = scenario.ModeExhaustive
	ScenarioSample     = scenario.ModeSample
)

// LoadScenario parses and validates one scenario file.
func LoadScenario(path string) (*Scenario, error) { return scenario.ParseFile(path) }

// LoadScenarioDir parses and validates every *.yaml scenario directly
// inside dir, sorted by file name.
func LoadScenarioDir(dir string) ([]*Scenario, error) { return scenario.LoadDir(dir) }

// ScenarioResult is one executed scenario: its outcome counts and the
// gate violations, if any.
type ScenarioResult struct {
	// Name is the scenario name.
	Name string `json:"name"`
	// Experiments is the number of classified experiments.
	Experiments int `json:"experiments"`
	// Masked, SDC, Crash are the per-outcome counts.
	Masked int `json:"masked"`
	SDC    int `json:"sdc"`
	Crash  int `json:"crash"`
	// Failures lists violated gates (empty = scenario passed).
	Failures []string `json:"failures,omitempty"`
}

// Passed reports whether every gate held.
func (r *ScenarioResult) Passed() bool { return len(r.Failures) == 0 }

// NewScenarioAnalysis builds the Analysis a scenario executes on: the
// scenario's kernel at its size preset, its tolerance override, its
// worker cap, and its fault model applied persistently. The scenario is
// validated first.
func NewScenarioAnalysis(sc *Scenario) (*Analysis, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	name, size := sc.Kernel, sc.EffectiveSize()
	k, err := kernels.New(name, size)
	if err != nil {
		return nil, err
	}
	tol := sc.Tolerance
	if tol == 0 {
		tol = k.Tolerance()
	}
	model, err := ParseFaultModel(sc.Fault)
	if err != nil {
		return nil, err
	}
	an, err := NewAnalysis(func() Program {
		kk, err := kernels.New(name, size)
		if err != nil {
			panic(err) // registry and size validated above
		}
		return kk
	}, tol, Options{Width: k.Width()})
	if err != nil {
		return nil, err
	}
	return an.With(WithWorkers(sc.Workers), WithFaultModel(model)), nil
}

// RunScenario executes one scenario end to end and evaluates its gates.
// Exhaustive scenarios run the full campaign (through the durable
// store-backed resumable path when a WithStore option is present, with
// a one-site append stride so a killed run loses little more than the
// batches its workers had in flight); sample scenarios classify a
// fixed-seed uniform draw.
// Identical scenario files always produce identical results — the
// determinism contract of the engine extends to the declarative layer.
// Gate violations land in the result's Failures, not in the error.
func RunScenario(sc *Scenario, opts ...RunOption) (*ScenarioResult, error) {
	an, err := NewScenarioAnalysis(sc)
	if err != nil {
		return nil, err
	}
	var kinds []Outcome
	switch sc.EffectiveMode() {
	case ScenarioExhaustive:
		var gt *GroundTruth
		if an.resolve(opts).store != nil {
			gt, err = an.ExhaustiveCheckpointed("", 1, opts...)
		} else {
			gt, err = an.Exhaustive(opts...)
		}
		if err != nil {
			return nil, err
		}
		kinds = gt.Kinds
	case ScenarioSample:
		budget := sc.Samples
		if sc.SampleFrac > 0 {
			budget = int(sc.SampleFrac * float64(an.SampleSpace()))
		}
		if budget < 1 {
			return nil, fmt.Errorf("ftb: scenario %q: sample budget %d too small (space %d)", sc.Name, budget, an.SampleSpace())
		}
		if budget > an.SampleSpace() {
			budget = an.SampleSpace()
		}
		pairs := sampling.Uniform(rng.New(sc.Seed), an.Sites(), an.Bits(), budget)
		recs, err := an.RunPairs(pairs, opts...)
		if err != nil {
			return nil, err
		}
		kinds = make([]Outcome, len(recs))
		for i, rec := range recs {
			kinds[i] = rec.Kind
		}
	}
	res := &ScenarioResult{Name: sc.Name, Experiments: len(kinds)}
	for _, kd := range kinds {
		switch kd {
		case Masked:
			res.Masked++
		case SDC:
			res.SDC++
		case Crash:
			res.Crash++
		}
	}
	res.Failures = sc.Expect.Check(res.Experiments, res.Masked, res.SDC, res.Crash)
	return res, nil
}
