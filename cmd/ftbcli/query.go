package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"ftb"
	"ftb/internal/campaign"
	"ftb/internal/store"
)

// cmdQuery answers point, range, and summary queries from a ground-truth
// store. It opens only the store: no kernel is constructed, no golden
// run is computed, and no experiment executes — a completed campaign is
// queryable forever at zero engine cost.
func cmdQuery(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	dir := storeDirFlag(fs, "ground-truth store directory (required)")
	campaignRef := fs.String("campaign", "", "campaign to query: directory name or unique program name (default: the store's only campaign)")
	site := fs.Int("site", -1, "point query: dynamic-instruction site")
	bit := fs.Int("bit", -1, "point query: bit position (requires -site)")
	sites := fs.String("sites", "", "range query: LO:HI half-open site range")
	diff := fs.Bool("diff", false, "compare two campaigns per (site,bit): ftbcli query -store DIR -diff A B")
	jsonOut := jsonFlag(fs)
	serve := serveFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return errors.New("query: -store is required")
	}
	st, err := ftb.OpenStore(*dir)
	if err != nil {
		return err
	}
	defer st.Close()

	if *diff {
		refs := fs.Args()
		if len(refs) != 2 {
			return errors.New("query: -diff takes exactly two campaign references (directory or unique program names)")
		}
		return queryDiff(st, refs[0], refs[1], *jsonOut)
	}

	if *serve != "" {
		col := ftb.NewCollector()
		st.SetCollector(col)
		srv, err := startServer(ctx, *serve, col, st)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "ftbcli: serving store query endpoints on http://%s (/v1/query /v1/campaigns /metrics)\n", srv.addr())
		<-ctx.Done()
		srv.shutdown()
		return ctx.Err()
	}

	emit := func(doc any, text func() error) error {
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(doc)
		}
		return text()
	}

	// No campaign and no query facets: list what the store holds.
	if *campaignRef == "" && *site < 0 && *sites == "" {
		doc, err := campaignListDoc(st)
		if err != nil {
			return err
		}
		return emit(doc, func() error {
			fmt.Printf("campaigns: %d\n", len(doc.Campaigns))
			for _, c := range doc.Campaigns {
				fault := c.Fault
				if fault == "" {
					fault = "bitflip"
				}
				fmt.Printf("  %-24s %-10s %7d sites × %2d bits  w%d  tol %g  %-18s coverage %d/%d (%.1f%%)  %d segments  %d B\n",
					c.Campaign, c.Program, c.Sites, c.Bits, c.Width, c.Tol, fault,
					c.Covered, c.Total, 100*float64(c.Covered)/float64(max(c.Total, 1)),
					c.Segments, c.Bytes)
			}
			return nil
		})
	}

	c, err := st.Lookup(*campaignRef)
	if err != nil {
		return err
	}

	switch {
	case *site >= 0 && *bit >= 0:
		doc, err := pointDoc(c, *site, *bit)
		if err != nil {
			return err
		}
		return emit(doc, func() error {
			outcome := doc.Outcome
			if !doc.Found {
				outcome = "unclassified"
			}
			fmt.Printf("%s site %d bit %d: %s\n", doc.Campaign, doc.Site, doc.Bit, outcome)
			return nil
		})
	case *site >= 0:
		doc, err := rangeDoc(c, *site, *site+1)
		if err != nil {
			return err
		}
		return emit(doc, func() error {
			fmt.Printf("%s site %d: masked %d  sdc %d  crash %d  missing %d\n",
				doc.Campaign, *site, doc.Masked, doc.SDC, doc.Crash, doc.Missing)
			return nil
		})
	case *sites != "":
		lo, hi, err := parseSiteRange(*sites)
		if err != nil {
			return err
		}
		doc, err := rangeDoc(c, lo, hi)
		if err != nil {
			return err
		}
		return emit(doc, func() error {
			fmt.Printf("%s sites [%d, %d): masked %d  sdc %d  crash %d  missing %d  sdc ratio %.2f%%\n",
				doc.Campaign, doc.LoSite, doc.HiSite, doc.Masked, doc.SDC, doc.Crash, doc.Missing,
				100*doc.SDCRatio)
			return nil
		})
	default:
		doc, err := campaignSummaryDoc(c)
		if err != nil {
			return err
		}
		return emit(doc, func() error {
			fault := doc.Fault
			if fault == "" {
				fault = "bitflip"
			}
			fmt.Printf("campaign %s: program %s, %d sites × %d bits, width %d, tolerance %g, fault %s\n",
				doc.Campaign, doc.Program, doc.Sites, doc.Bits, doc.Width, doc.Tol, fault)
			fmt.Printf("  coverage: %d/%d experiments (%.1f%%)\n",
				doc.Covered, doc.Total, 100*float64(doc.Covered)/float64(max(doc.Total, 1)))
			classified := doc.Masked + doc.SDC + doc.Crash
			if classified > 0 {
				fmt.Printf("  outcomes: masked %d (%.2f%%)  sdc %d (%.2f%%)  crash %d (%.2f%%)\n",
					doc.Masked, 100*float64(doc.Masked)/float64(classified),
					doc.SDC, 100*float64(doc.SDC)/float64(classified),
					doc.Crash, 100*float64(doc.Crash)/float64(classified))
			}
			fmt.Printf("  log: %d segments, %d bytes\n", doc.Segments, doc.Bytes)
			return nil
		})
	}
}

// parseSiteRange parses "LO:HI" into a half-open site range.
func parseSiteRange(s string) (lo, hi int, err error) {
	a, b, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("query: -sites %q is not LO:HI", s)
	}
	if lo, err = strconv.Atoi(a); err != nil {
		return 0, 0, fmt.Errorf("query: -sites %q: %w", s, err)
	}
	if hi, err = strconv.Atoi(b); err != nil {
		return 0, 0, fmt.Errorf("query: -sites %q: %w", s, err)
	}
	return lo, hi, nil
}

// The JSON document shapes below are shared between `ftbcli query -json`
// and the /v1 endpoints, so scripting against either surface sees the
// same schema.

type campaignDoc struct {
	Campaign  string  `json:"campaign"`
	Program   string  `json:"program"`
	Sites     int     `json:"sites"`
	Bits      int     `json:"bits"`
	Width     int     `json:"width"`
	Tol       float64 `json:"tol"`
	Fault     string  `json:"fault,omitempty"`
	GoldenCRC uint32  `json:"golden_crc"`
	Covered   int64   `json:"covered"`
	Total     int64   `json:"total"`
	Segments  int     `json:"segments"`
	Bytes     int64   `json:"bytes"`
}

type campaignList struct {
	Campaigns []campaignDoc `json:"campaigns"`
}

type summaryDoc struct {
	campaignDoc
	Masked int `json:"masked"`
	SDC    int `json:"sdc"`
	Crash  int `json:"crash"`
}

type pointResult struct {
	Campaign string `json:"campaign"`
	Site     int    `json:"site"`
	Bit      int    `json:"bit"`
	Found    bool   `json:"found"`
	Outcome  string `json:"outcome,omitempty"`
}

type rangeResult struct {
	Campaign string  `json:"campaign"`
	LoSite   int     `json:"lo_site"`
	HiSite   int     `json:"hi_site"`
	Masked   int     `json:"masked"`
	SDC      int     `json:"sdc"`
	Crash    int     `json:"crash"`
	Missing  int     `json:"missing"`
	SDCRatio float64 `json:"sdc_ratio"`
}

func infoDoc(info store.CampaignInfo) campaignDoc {
	return campaignDoc{
		Campaign:  info.Dir,
		Program:   info.Identity.Program,
		Sites:     info.Identity.Sites,
		Bits:      info.Identity.Bits,
		Width:     info.Identity.Width,
		Tol:       info.Identity.Tol,
		Fault:     info.Identity.Fault,
		GoldenCRC: info.Identity.GoldenCRC,
		Covered:   info.Covered,
		Total:     info.Total,
		Segments:  info.Segments,
		Bytes:     info.Bytes,
	}
}

func campaignListDoc(st *ftb.Store) (campaignList, error) {
	infos, err := st.Campaigns()
	if err != nil {
		return campaignList{}, err
	}
	doc := campaignList{Campaigns: []campaignDoc{}}
	for _, info := range infos {
		doc.Campaigns = append(doc.Campaigns, infoDoc(info))
	}
	return doc, nil
}

func campaignSummaryDoc(c *ftb.StoreCampaign) (summaryDoc, error) {
	sum, err := c.Summary(0, c.ID().Sites)
	if err != nil {
		return summaryDoc{}, err
	}
	return summaryDoc{
		campaignDoc: infoDoc(c.Info()),
		Masked:      sum.Counts[0],
		SDC:         sum.Counts[1],
		Crash:       sum.Counts[2],
	}, nil
}

func pointDoc(c *ftb.StoreCampaign, site, bit int) (pointResult, error) {
	k, found, err := c.Get(site, bit)
	if err != nil {
		return pointResult{}, err
	}
	doc := pointResult{Campaign: c.ID().DirName(), Site: site, Bit: bit, Found: found}
	if found {
		doc.Outcome = k.String()
	}
	return doc, nil
}

// diffSampleCap bounds the mismatch examples carried in a diff
// document; the transition counts cover the full space regardless.
const diffSampleCap = 20

// diffResult is the document of `ftbcli query -diff A B`: the
// per-(site,bit) outcome comparison of two campaigns with the same
// experiment shape. Transitions count mismatches by outcome pair
// ("masked->sdc"); Samples holds the first few mismatching experiments.
type diffResult struct {
	CampaignA   string         `json:"campaign_a"`
	CampaignB   string         `json:"campaign_b"`
	Sites       int            `json:"sites"`
	Bits        int            `json:"bits"`
	Compared    int            `json:"compared"`
	Agree       int            `json:"agree"`
	Mismatches  int            `json:"mismatches"`
	OnlyA       int            `json:"only_a"`
	OnlyB       int            `json:"only_b"`
	Transitions map[string]int `json:"transitions,omitempty"`
	Samples     []diffSample   `json:"samples,omitempty"`
}

type diffSample struct {
	Site int    `json:"site"`
	Bit  int    `json:"bit"`
	A    string `json:"a"`
	B    string `json:"b"`
}

// queryDiff materializes two campaigns and reports where their stored
// outcomes disagree. Experiments covered by only one campaign are
// tallied separately, not counted as mismatches, so a partial campaign
// diffs cleanly against a complete one.
func queryDiff(st *ftb.Store, refA, refB string, jsonOut bool) error {
	ca, err := st.Lookup(refA)
	if err != nil {
		return fmt.Errorf("query: campaign %q: %w", refA, err)
	}
	cb, err := st.Lookup(refB)
	if err != nil {
		return fmt.Errorf("query: campaign %q: %w", refB, err)
	}
	ida, idb := ca.ID(), cb.ID()
	if ida.Sites != idb.Sites || ida.Bits != idb.Bits {
		return fmt.Errorf("query: campaigns cover different spaces: %s is %d sites × %d bits, %s is %d sites × %d bits",
			ida.DirName(), ida.Sites, ida.Bits, idb.DirName(), idb.Sites, idb.Bits)
	}
	gta, rangesA, err := ca.MaterializeSparse()
	if err != nil {
		return err
	}
	gtb, rangesB, err := cb.MaterializeSparse()
	if err != nil {
		return err
	}
	total := ida.Sites * ida.Bits
	covA := coverageMask(total, rangesA)
	covB := coverageMask(total, rangesB)

	doc := diffResult{
		CampaignA:   ida.DirName(),
		CampaignB:   idb.DirName(),
		Sites:       ida.Sites,
		Bits:        ida.Bits,
		Transitions: make(map[string]int),
	}
	for i := 0; i < total; i++ {
		switch {
		case covA[i] && covB[i]:
			doc.Compared++
			ka, kb := gta.Kinds[i], gtb.Kinds[i]
			if ka == kb {
				doc.Agree++
				continue
			}
			doc.Mismatches++
			doc.Transitions[ka.String()+"->"+kb.String()]++
			if len(doc.Samples) < diffSampleCap {
				doc.Samples = append(doc.Samples, diffSample{
					Site: i / ida.Bits, Bit: i % ida.Bits,
					A: ka.String(), B: kb.String(),
				})
			}
		case covA[i]:
			doc.OnlyA++
		case covB[i]:
			doc.OnlyB++
		}
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	fmt.Printf("diff %s vs %s (%d sites × %d bits)\n", doc.CampaignA, doc.CampaignB, doc.Sites, doc.Bits)
	fmt.Printf("  compared %d  agree %d (%.2f%%)  mismatch %d\n",
		doc.Compared, doc.Agree, 100*float64(doc.Agree)/float64(max(doc.Compared, 1)), doc.Mismatches)
	if doc.OnlyA > 0 || doc.OnlyB > 0 {
		fmt.Printf("  covered only by %s: %d   only by %s: %d\n", doc.CampaignA, doc.OnlyA, doc.CampaignB, doc.OnlyB)
	}
	if doc.Mismatches > 0 {
		keys := make([]string, 0, len(doc.Transitions))
		for k := range doc.Transitions {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Println("  mismatch transitions:")
		for _, k := range keys {
			fmt.Printf("    %-16s %d\n", k, doc.Transitions[k])
		}
		fmt.Println("  first mismatches:")
		for _, s := range doc.Samples {
			fmt.Printf("    site %6d bit %2d: %s -> %s\n", s.Site, s.Bit, s.A, s.B)
		}
	}
	return nil
}

// coverageMask expands a campaign's completed experiment ranges into a
// per-experiment bitmap.
func coverageMask(total int, ranges []campaign.Range) []bool {
	m := make([]bool, total)
	for _, r := range ranges {
		lo, hi := max(r.Lo, 0), min(r.Hi, total)
		for i := lo; i < hi; i++ {
			m[i] = true
		}
	}
	return m
}

func rangeDoc(c *ftb.StoreCampaign, loSite, hiSite int) (rangeResult, error) {
	sum, err := c.Summary(loSite, hiSite)
	if err != nil {
		return rangeResult{}, err
	}
	return rangeResult{
		Campaign: c.ID().DirName(),
		LoSite:   loSite,
		HiSite:   hiSite,
		Masked:   sum.Counts[0],
		SDC:      sum.Counts[1],
		Crash:    sum.Counts[2],
		Missing:  sum.Missing,
		SDCRatio: sum.Counts.SDCRatio(),
	}, nil
}
