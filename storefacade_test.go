package ftb

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftb/internal/persist"
)

// storeTestAnalysis builds a cg/test analysis with a 2-bit fault model
// and a factory-invocation counter: the engine constructs programs only
// when it is about to run experiments, so zero new counts across a call
// proves the call ran zero engine experiments.
func storeTestAnalysis(t *testing.T) (*Analysis, *atomic.Int64) {
	t.Helper()
	k, err := NewKernel("cg", SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	an, err := NewAnalysis(func() Program {
		calls.Add(1)
		kk, err := NewKernel("cg", SizeTest)
		if err != nil {
			panic(err)
		}
		return kk
	}, k.Tolerance(), Options{Bits: 2, Width: k.Width()})
	if err != nil {
		t.Fatal(err)
	}
	return an, &calls
}

func TestWithStoreExhaustiveByteIdentity(t *testing.T) {
	an, _ := storeTestAnalysis(t)
	want, err := an.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := an.Exhaustive(WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clusterGTBytes(t, got), clusterGTBytes(t, want)) {
		t.Fatal("store-materialized ground truth is not byte-identical to in-memory")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh handle on the same directory serves the same bytes.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	c, err := an.StoreCampaign(st2)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clusterGTBytes(t, again), clusterGTBytes(t, want)) {
		t.Fatal("reopened store serves different bytes")
	}
}

// storeCovered sums the experiments the analysis's store campaign holds.
func storeCovered(t *testing.T, an *Analysis, st *Store) int {
	t.Helper()
	c, err := an.StoreCampaign(st)
	if err != nil {
		t.Fatal(err)
	}
	ranges, err := c.Completed()
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for _, r := range ranges {
		covered += r.Hi - r.Lo
	}
	return covered
}

func TestWithStoreCheckpointedResumeAndZeroRuns(t *testing.T) {
	an, calls := storeTestAnalysis(t)
	want, err := an.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// Phase 1: cancel mid-campaign; the store keeps the partial progress.
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	total := an.SampleSpace()
	obs := ObserverFunc(func(e ProgressEvent) {
		if e.Done >= total/3 {
			cancel()
		}
	})
	_, err = an.ExhaustiveCheckpointed("", 1, WithStore(st), WithContext(ctx), WithObserver(obs))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("phase 1 err = %v, want context.Canceled", err)
	}
	covered := storeCovered(t, an, st)
	if covered < total/3 || covered >= total {
		t.Fatalf("store covers %d/%d experiments after cancellation, want at least the %d reported and not all", covered, total, total/3)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: a fresh handle (a new process, in effect) resumes from the
	// manifest, runs exactly what the store lacks, and completes.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	var ran, left int
	obs2 := ObserverFunc(func(e ProgressEvent) { ran, left = e.Done, e.Total })
	got, err := an.ExhaustiveCheckpointed("", 1, WithStore(st2), WithObserver(obs2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clusterGTBytes(t, got), clusterGTBytes(t, want)) {
		t.Fatal("store-resumed ground truth is not byte-identical to in-process")
	}
	if ran != total-covered || left != total-covered {
		t.Fatalf("resume ran %d/%d experiments, want the %d the store lacked", ran, left, total-covered)
	}

	// Phase 3: the campaign is fully covered, so answering again costs
	// zero engine runs — the factory is never invoked.
	pre := calls.Load()
	again, err := an.ExhaustiveCheckpointed("", 1, WithStore(st2))
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load() - pre; n != 0 {
		t.Fatalf("covered campaign constructed %d programs, want 0 engine runs", n)
	}
	if !bytes.Equal(clusterGTBytes(t, again), clusterGTBytes(t, want)) {
		t.Fatal("re-served ground truth differs")
	}
}

// gateProg is a chain of stores whose injected runs call gate when the
// fault lands on site 0: only there does the first store return a value
// other than the one written. Low-order flips keep every value finite,
// so no site-0 run crashes before reaching the gate.
type gateProg struct {
	sites int
	gate  func()
}

func (p *gateProg) Name() string { return "gate" }

func (p *gateProg) Run(c *Ctx) []float64 {
	acc := 0.0
	for i := 0; i < p.sites; i++ {
		v := 1 + float64(i)/8
		got := c.Store(v)
		if i == 0 && got != v && p.gate != nil {
			p.gate()
		}
		acc += got
	}
	return []float64{acc}
}

func gateAnalysis(t *testing.T, gate func()) *Analysis {
	t.Helper()
	an, err := NewAnalysis(func() Program { return &gateProg{sites: 64, gate: gate} }, 1e-3,
		Options{Bits: 2})
	if err != nil {
		t.Fatal(err)
	}
	return an.With(WithWorkers(2))
}

// TestWithStoreKeepsOutOfOrderRangesOnCancel holds the site-0 batch
// until the other worker has finished half the campaign, then cancels.
// Nothing is contiguous from experiment 0, yet everything the second
// worker finished must be in the store, and the resume must run only the
// gaps.
func TestWithStoreKeepsOutOfOrderRangesOnCancel(t *testing.T) {
	want, err := gateAnalysis(t, nil).Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	total := len(want.Kinds)
	half := make(chan struct{})
	an := gateAnalysis(t, func() {
		select {
		case <-half:
		case <-time.After(30 * time.Second):
			t.Error("site-0 batch never released")
		}
	})
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	obs := ObserverFunc(func(e ProgressEvent) {
		if e.Done >= total/2 {
			once.Do(func() { cancel(); close(half) })
		}
	})
	if _, err := an.ExhaustiveCheckpointed("", 1, WithStore(st), WithContext(ctx), WithObserver(obs)); !errors.Is(err, context.Canceled) {
		t.Fatalf("phase 1 err = %v, want context.Canceled", err)
	}
	c, err := an.StoreCampaign(st)
	if err != nil {
		t.Fatal(err)
	}
	ranges, err := c.Completed()
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for _, r := range ranges {
		covered += r.Hi - r.Lo
	}
	if covered < total/2 || covered >= total || len(ranges) == 0 || ranges[0].Lo == 0 {
		t.Fatalf("store holds %v (%d/%d experiments), want at least half, none of site 0", ranges, covered, total)
	}

	var ran int
	resumeObs := ObserverFunc(func(e ProgressEvent) { ran = e.Done })
	got, err := an.Exhaustive(WithStore(st), WithObserver(resumeObs))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clusterGTBytes(t, got), clusterGTBytes(t, want)) {
		t.Fatal("resumed ground truth is not byte-identical to an uninterrupted run")
	}
	if ran != total-covered {
		t.Errorf("resume ran %d experiments, want the %d gaps", ran, total-covered)
	}
}

// TestExhaustiveWithStoreResume pins Exhaustive(WithStore) to the same
// resume path as ExhaustiveCheckpointed: a half-covered store runs, and
// appends, exactly the experiments it lacks, and a covered store
// constructs no program at all.
func TestExhaustiveWithStoreResume(t *testing.T) {
	an, calls := storeTestAnalysis(t)
	want, err := an.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	total := len(want.Kinds)
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	col := NewCollector()
	st.SetCollector(col)
	c, err := an.StoreCampaign(st)
	if err != nil {
		t.Fatal(err)
	}
	// Every other 20-experiment block: the store is half covered, with
	// gaps everywhere rather than a missing suffix.
	const blk = 20
	for lo := 0; lo < total; lo += 2 * blk {
		if err := c.Append(lo, want.Kinds[lo:min(lo+blk, total)]); err != nil {
			t.Fatal(err)
		}
	}
	covered := storeCovered(t, an, st)
	pre := col.Snapshot().Store.RecordsAppended

	var ran int
	obs := ObserverFunc(func(e ProgressEvent) { ran = e.Done })
	got, err := an.Exhaustive(WithStore(st), WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clusterGTBytes(t, got), clusterGTBytes(t, want)) {
		t.Fatal("resumed ground truth is not byte-identical to in-memory")
	}
	if ran != total-covered {
		t.Errorf("resume ran %d experiments, want the %d the store lacked", ran, total-covered)
	}
	if n := col.Snapshot().Store.RecordsAppended - pre; n != int64(total-covered) {
		t.Errorf("resume appended %d records, want %d", n, total-covered)
	}

	pre = col.Snapshot().Store.RecordsAppended
	preCalls := calls.Load()
	again, err := an.Exhaustive(WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load() - preCalls; n != 0 {
		t.Errorf("covered campaign constructed %d programs, want 0", n)
	}
	if n := col.Snapshot().Store.RecordsAppended - pre; n != 0 {
		t.Errorf("covered campaign appended %d records, want 0", n)
	}
	if !bytes.Equal(clusterGTBytes(t, again), clusterGTBytes(t, want)) {
		t.Fatal("re-served ground truth differs")
	}
}

func TestWithStoreClusterKilledCoordinatorResume(t *testing.T) {
	an, _ := storeTestAnalysis(t)
	want, err := an.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	urls := clusterTestWorkers(t, "cg", SizeTest, 1)
	dir := t.TempDir()

	// Phase 1: kill the coordinator (cancel) once a third of the space
	// clears. Completed shards are already durable in the store.
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	total := an.SampleSpace()
	obs := ObserverFunc(func(e ProgressEvent) {
		if e.Frontier >= total/3 {
			cancel()
		}
	})
	_, err = an.ExhaustiveCheckpointed("", 1,
		WithCluster(ClusterOptions{Workers: urls, ShardSize: 32}),
		WithStore(st), WithContext(ctx), WithObserver(obs))
	if err == nil {
		t.Fatal("phase 1 completed despite cancellation")
	}
	c, err := an.StoreCampaign(st)
	if err != nil {
		t.Fatal(err)
	}
	ranges, err := c.Completed()
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for _, r := range ranges {
		covered += r.Hi - r.Lo
	}
	if covered <= 0 || covered >= total {
		t.Fatalf("store covers %d/%d experiments after kill, want mid-campaign", covered, total)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: a fresh coordinator resumes from the store manifest; the
	// merged ground truth materialized from the store is byte-identical
	// to the in-process campaign.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, err := an.ExhaustiveCheckpointed("", 1,
		WithCluster(ClusterOptions{Workers: urls, ShardSize: 32}), WithStore(st2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clusterGTBytes(t, got), clusterGTBytes(t, want)) {
		t.Fatal("killed-and-resumed cluster ground truth is not byte-identical to in-process")
	}
}

func TestWithStoreRejectsCheckpointPath(t *testing.T) {
	an, _ := storeTestAnalysis(t)
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, err = an.ExhaustiveCheckpointed(filepath.Join(t.TempDir(), "x.ckpt"), 4, WithStore(st))
	if err == nil || !strings.Contains(err.Error(), "WithStore") {
		t.Fatalf("err = %v, want a rejection naming WithStore", err)
	}
}

func TestImportGroundTruthFileMigration(t *testing.T) {
	an, calls := storeTestAnalysis(t)
	want, err := an.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gt.bin")
	if err := persist.SaveFile(path, want, persist.SaveGroundTruth); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Before migration a materialization is typed-incomplete.
	c, err := an.StoreCampaign(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Materialize(); !errors.Is(err, ErrStoreIncomplete) {
		t.Fatalf("empty campaign Materialize err = %v, want ErrStoreIncomplete", err)
	}

	if err := an.ImportGroundTruthFile(st, path); err != nil {
		t.Fatal(err)
	}
	pre := calls.Load()
	got, err := an.ExhaustiveCheckpointed("", 8, WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load() - pre; n != 0 {
		t.Fatalf("migrated campaign constructed %d programs, want 0 engine runs", n)
	}
	if !bytes.Equal(clusterGTBytes(t, got), clusterGTBytes(t, want)) {
		t.Fatal("migrated ground truth is not byte-identical to the container's")
	}
}

// TestRangeSinkCoalesces feeds the store sink ranges out of order: it
// must append once it holds flushAt experiments, one append per maximal
// run of adjacent ranges, lowest first, each with its own outcomes.
func TestRangeSinkCoalesces(t *testing.T) {
	type call struct {
		lo    int
		kinds []Outcome
	}
	var calls []call
	s := &rangeSink{flushAt: 10, append: func(lo int, kinds []Outcome) error {
		calls = append(calls, call{lo, slices.Clone(kinds)})
		return nil
	}}
	kinds := func(lo, hi int) []Outcome {
		ks := make([]Outcome, hi-lo)
		for i := range ks {
			ks[i] = Outcome((lo + i) % 3)
		}
		return ks
	}
	for _, r := range [][2]int{{6, 8}, {2, 4}, {12, 14}, {4, 6}} {
		if err := s.add(r[0], r[1], kinds(r[0], r[1])); err != nil {
			t.Fatal(err)
		}
	}
	if len(calls) != 0 {
		t.Fatalf("appended %d times below the stride", len(calls))
	}
	if err := s.add(0, 2, kinds(0, 2)); err != nil { // reaches 10 experiments
		t.Fatal(err)
	}
	want := []call{{0, kinds(0, 8)}, {12, kinds(12, 14)}}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("appends = %v, want %v", calls, want)
	}
	if err := s.flush(); err != nil || len(calls) != 2 {
		t.Fatalf("empty flush: err %v, %d appends", err, len(calls))
	}
}
