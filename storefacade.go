package ftb

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"ftb/internal/campaign"
	"ftb/internal/cluster"
	"ftb/internal/obs"
	"ftb/internal/persist"
	"ftb/internal/store"
)

// Store is a durable, queryable ground-truth store: a directory of
// per-campaign append-only logs keyed by (program, config) identity.
// Attach one to a campaign with WithStore; open past campaigns for
// querying with OpenStore + Store.Lookup, or through `ftbcli query`.
type Store = store.DB

// StoreCampaign is one campaign's log inside a Store: the per-experiment
// outcome records of a single (program, config) identity, with point
// lookup (Get), range scans (Scan, Summary, SiteSlice), and
// whole-campaign materialization into a GroundTruth.
type StoreCampaign = store.Campaign

// StoreIdentity keys a campaign inside a Store: the program name plus
// every config facet that changes experiment outcomes.
type StoreIdentity = store.Identity

// Typed store errors, re-exported so callers can errors.Is against the
// facade alone.
var (
	// ErrStoreIdentityMismatch reports a store campaign whose recorded
	// identity disagrees with the analysis (different program, shape,
	// tolerance, or golden run).
	ErrStoreIdentityMismatch = store.ErrIdentityMismatch
	// ErrStoreCorrupt reports corruption inside a store's committed
	// region (bad frame CRC, truncated segment, bad manifest).
	ErrStoreCorrupt = store.ErrCorrupt
	// ErrStoreIncomplete reports a materialization over a campaign that
	// does not yet cover every (site, bit) experiment.
	ErrStoreIncomplete = store.ErrIncomplete
	// ErrCheckpointMismatch reports a resume whose prior — a store
	// campaign's outcomes and completed ranges — does not match the
	// campaign's shape (see campaign.ErrCheckpointMismatch).
	ErrCheckpointMismatch = campaign.ErrCheckpointMismatch
)

// OpenStore opens the ground-truth store rooted at dir, creating the
// directory if needed. A Store holds any number of campaigns; the same
// Store value is safe for concurrent use.
func OpenStore(dir string) (*Store, error) { return store.Open(dir) }

// WithStore routes the call's exhaustive campaign through st: the
// campaign runs only the experiments the store does not hold yet (so a
// killed run resumes where it stopped), outcomes are appended durably as
// the run progresses, and the returned ground truth is materialized back
// from the store (byte-identical to the in-memory result). Only
// exhaustive campaigns consult the store.
func WithStore(st *Store) RunOption {
	return func(rc *runConfig) { rc.store = st }
}

// StoreIdentity returns the identity under which this analysis's
// campaigns are keyed in a store: program name, site count, bits, width,
// tolerance, fault model, and the golden-run fingerprint. A fault model
// applied persistently with With(WithFaultModel(...)) is part of the
// identity — campaigns under distinct models never share a log.
func (a *Analysis) StoreIdentity() StoreIdentity {
	return a.storeIdentityFor(a.run)
}

// storeIdentityFor builds the store key of one resolved run. The Fault
// facet stays empty under the default model, so pre-fault-model store
// directories keep their identities.
func (a *Analysis) storeIdentityFor(rc runConfig) StoreIdentity {
	id := store.Identity{
		Program:   a.name,
		Sites:     a.golden.Sites(),
		Bits:      a.bitsFor(rc),
		Width:     a.width,
		Tol:       a.tol,
		GoldenCRC: cluster.GoldenCRC(a.golden),
	}
	if !rc.model.IsDefault() {
		id.Fault = rc.model.String()
	}
	return id
}

// StoreCampaign opens (creating if absent) this analysis's campaign log
// in st. It fails with ErrStoreIdentityMismatch if the store already
// holds a campaign under the same key whose recorded identity differs.
func (a *Analysis) StoreCampaign(st *Store) (*StoreCampaign, error) {
	return st.Campaign(a.StoreIdentity())
}

// ImportGroundTruth migrates a completed ground truth — typically one
// decoded from a SaveGroundTruth container — into this analysis's
// campaign log in st, after which it is queryable with zero engine runs.
func (a *Analysis) ImportGroundTruth(st *Store, gt *GroundTruth) error {
	c, err := a.StoreCampaign(st)
	if err != nil {
		return err
	}
	return c.ImportGroundTruth(gt)
}

// ImportGroundTruthFile reads a SaveGroundTruth container from path and
// imports it into st (the migration path for pre-store campaign files).
func (a *Analysis) ImportGroundTruthFile(st *Store, path string) error {
	gt, err := persist.LoadFile(path, persist.LoadGroundTruth)
	if err != nil {
		return fmt.Errorf("ftb: load ground truth %s: %w", path, err)
	}
	return a.ImportGroundTruth(st, gt)
}

// storeBatch is Exhaustive(WithStore)'s append stride in sites, the
// default of ExhaustiveCheckpointed's batch and of `ftbcli exhaustive
// -batch`.
const storeBatch = 256

// storeExhaustive runs the exhaustive campaign durably through rc.store.
// The campaign log carries the resume state: the experiment ranges it
// already holds are skipped, newly completed ranges land as durable
// appends, and the final ground truth is materialized from the store, so
// it is exactly what later queries serve. A campaign the store already
// covers costs zero engine runs.
func (a *Analysis) storeExhaustive(rc runConfig, batch int) (*GroundTruth, error) {
	c, err := rc.store.Campaign(a.storeIdentityFor(rc))
	if err != nil {
		return nil, err
	}
	prior, done, err := c.MaterializeSparse()
	if err != nil {
		return nil, err
	}
	appendRange := func(name string, lo int, kinds []Outcome) error {
		h := rc.spans.Start(obs.CatStoreAppend, name, rc.spanParent, -1)
		err := c.Append(lo, kinds)
		h.End(int64(len(kinds)))
		return err
	}
	if rc.cluster != nil {
		// Each merged lease is appended before its merge completes: the
		// store never lags the coordinator.
		onShard := func(lo, _ int, kinds []Outcome) error { return appendRange("shard", lo, kinds) }
		if _, err := a.clusterExhaustive(rc, prior, done, onShard); err != nil {
			return nil, err
		}
		return c.Materialize()
	}
	if batch < 1 {
		batch = storeBatch
	}
	sink := &rangeSink{
		flushAt: batch * a.bitsFor(rc),
		append:  func(lo int, kinds []Outcome) error { return appendRange("ranges", lo, kinds) },
	}
	_, err = campaign.ExhaustiveResume(a.configFrom(rc), prior, done, sink.add)
	// Flush on every exit, cancellation and errors included: whatever
	// the engine reported complete is kept for the next resume.
	if ferr := sink.flush(); ferr != nil {
		err = errors.Join(err, ferr)
	}
	if err != nil {
		return nil, err
	}
	return c.Materialize()
}

// rangeSink buffers the completed ranges an in-process campaign reports
// and appends them once they add up to flushAt experiments. Adjacent
// ranges coalesce, so a flush costs one fsynced append per run of
// adjacent work rather than one per engine batch.
type rangeSink struct {
	flushAt int
	append  func(lo int, kinds []Outcome) error
	pending []pendingRange // sorted by lo, never adjacent
	n       int            // experiments pending
}

type pendingRange struct {
	lo    int
	kinds []Outcome
}

func (s *rangeSink) end(i int) int { return s.pending[i].lo + len(s.pending[i].kinds) }

// add buffers the range [lo, hi) with its outcomes, copied.
func (s *rangeSink) add(lo, hi int, kinds []Outcome) error {
	i := sort.Search(len(s.pending), func(i int) bool { return s.pending[i].lo > lo })
	if i > 0 && s.end(i-1) == lo {
		i--
		s.pending[i].kinds = append(s.pending[i].kinds, kinds...)
	} else {
		s.pending = slices.Insert(s.pending, i, pendingRange{lo: lo, kinds: slices.Clone(kinds)})
	}
	if i+1 < len(s.pending) && s.end(i) == s.pending[i+1].lo {
		s.pending[i].kinds = append(s.pending[i].kinds, s.pending[i+1].kinds...)
		s.pending = slices.Delete(s.pending, i+1, i+2)
	}
	s.n += hi - lo
	if s.n >= s.flushAt {
		return s.flush()
	}
	return nil
}

// flush appends every buffered range, lowest first.
func (s *rangeSink) flush() error {
	for len(s.pending) > 0 {
		p := s.pending[0]
		if err := s.append(p.lo, p.kinds); err != nil {
			return err
		}
		s.pending = s.pending[1:]
		s.n -= len(p.kinds)
	}
	return nil
}
