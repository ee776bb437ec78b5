package rt

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/gen"
	"secreta/internal/generalize"
	"secreta/internal/hierarchy"
	"secreta/internal/privacy"
	"secreta/internal/relational"
	"secreta/internal/timing"
	"secreta/internal/transaction"
)

// This file preserves the merge traversal whose Rmerger partner pick
// scored every candidate on cluster pointers and sorted them all,
// verbatim, and pins that the current traversal (flat signature table,
// linear minimum with a sort only on ties, cached violation counts,
// skipped scans for capped clusters) is observationally identical: the
// same partner on every pick, the same Merges, Clusters, TransRepairs and
// SuppressedClusters, and byte-identical anonymized output, over all
// three bounding methods.

// refCluster is the scanning traversal's cluster: its signature lives
// in relNodes.
type refCluster struct {
	records []int
	relVals []string // generalized QI values, aligned with qis
	// relNodes caches the hierarchy nodes of relVals so the O(clusters^2)
	// merge scoring runs on pointers (LCA walks, O(1) NCP) instead of
	// per-pair value lookups. nil when a signature value is unknown to its
	// hierarchy; such clusters never merge (mirroring the old per-pair
	// lookup error).
	relNodes []*hierarchy.Node
	items    [][]string
	// itemIDs mirrors items as dense IDs into the run's shared TxView —
	// the representation every k^m gating check during the merge phase
	// counts on. The inner slices alias the view (read-only); merging
	// only appends to the outer list. Stale after a transaction-phase
	// repair rewrites items, but no check runs after that point.
	itemIDs [][]uint32
	clean   bool // no further merge processing needed
	merges  int  // merge-chain length, bounded by maxMergeChain
}

// resolveNodes caches the cluster signature's hierarchy nodes.
func (c *refCluster) resolveNodes(hh []*hierarchy.Hierarchy) {
	nodes := make([]*hierarchy.Node, len(c.relVals))
	for i, v := range c.relVals {
		n := hh[i].Node(v)
		if n == nil {
			c.relNodes = nil
			return
		}
		nodes[i] = n
	}
	c.relNodes = nodes
}

// referenceAnonymize runs the configured combination on an RT-dataset.
func referenceAnonymize(ds *dataset.Dataset, opts Options) (*Result, error) {
	if !ds.HasTransaction() {
		return nil, fmt.Errorf("rt: dataset has no transaction attribute")
	}
	if opts.M < 1 {
		return nil, fmt.Errorf("rt: m must be >= 1, got %d", opts.M)
	}
	if opts.Delta < 0 {
		return nil, fmt.Errorf("rt: delta must be >= 0, got %v", opts.Delta)
	}
	if opts.Weight <= 0 || opts.Weight > 1 {
		opts.Weight = 0.5
	}
	relRun, err := relationalByName(opts.RelAlgo)
	if err != nil {
		return nil, err
	}
	transRun, err := transactionByName(opts.TransAlgo)
	if err != nil {
		return nil, err
	}
	qis, err := ds.QIIndices(opts.QIs)
	if err != nil {
		return nil, err
	}
	hh, err := opts.Hierarchies.ForQIs(ds, qis)
	if err != nil {
		return nil, err
	}

	sw := timing.Start()
	relRes, err := relRun(ds, relational.Options{Ctx: opts.Ctx, K: opts.K, QIs: opts.QIs, Hierarchies: opts.Hierarchies, Interned: interned(ds, opts)})
	if err != nil {
		return nil, fmt.Errorf("rt: relational phase (%s): %w", opts.RelAlgo, err)
	}
	sw.Mark("relational")

	// The item domain is interned once for the whole run (or inherited
	// from the caller's batch-shared interning) and every merge-phase k^m
	// check counts violations over the resulting IDs with one reusable
	// counter — the seed re-interned each cluster's transactions and
	// materialized full violation lists on every check just to take their
	// length, which dominated the traversal's allocations.
	view := txView(ds, opts)
	counter := privacy.NewKMCounter(view)
	clusters := referenceClustersFromClasses(ds, relRes.Anonymized, qis, hh, view)
	merges := 0
	for {
		// One traversal iteration scans clusters and scores merge
		// candidates; polling here (and inside pickPartner) bounds the
		// cancellation delay to a fraction of one iteration.
		if err := ctxErr(opts.Ctx); err != nil {
			return nil, err
		}
		dirtyIdx := -1
		for i, c := range clusters {
			if c == nil || c.clean {
				continue
			}
			if counter.Anonymous(opts.K, opts.M, c.itemIDs) {
				c.clean = true
				continue
			}
			dirtyIdx = i
			break
		}
		if dirtyIdx < 0 {
			break
		}
		c := clusters[dirtyIdx]
		partner, delta := referencePickPartner(clusters, dirtyIdx, hh, opts, counter)
		if partner >= 0 && delta <= opts.Delta && (opts.UngatedMerges || c.merges < maxMergeChain) {
			// Merge only when it actually helps the transaction side:
			// the merged multiset must have strictly fewer violations
			// than the two clusters separately (shared rare itemsets
			// combine support and clear k).
			helps := opts.UngatedMerges
			if !helps {
				before := counter.Count(opts.K, opts.M, 0, c.itemIDs) +
					counter.Count(opts.K, opts.M, 0, clusters[partner].itemIDs)
				after := counter.Count(opts.K, opts.M, 0, c.itemIDs, clusters[partner].itemIDs)
				helps = after < before
			}
			if helps {
				referenceMergeClusters(clusters, dirtyIdx, partner, hh)
				merges++
				continue
			}
		}
		// Too costly or unhelpful to merge: defer to the transaction
		// phase below.
		c.clean = true
	}
	sw.Mark("merge")

	// Transaction phase: enforce k^m inside every cluster that still
	// violates it (including those flagged for repair above).
	transRepairs := 0
	suppressed := 0
	live := clusters[:0]
	for _, c := range clusters {
		if c != nil {
			live = append(live, c)
		}
	}
	clusters = live
	for _, c := range clusters {
		if err := ctxErr(opts.Ctx); err != nil {
			return nil, err
		}
		if counter.Anonymous(opts.K, opts.M, c.itemIDs) {
			continue
		}
		repaired, err := referenceRepairCluster(ds, c, transRun, opts)
		if err != nil {
			// A repair abandoned by cancellation is not infeasible —
			// surface the context error instead of suppressing the cluster.
			if cerr := ctxErr(opts.Ctx); cerr != nil {
				return nil, cerr
			}
			// Infeasible inside this cluster: suppress its items.
			for i := range c.items {
				c.items[i] = nil
			}
			c.itemIDs = nil
			suppressed++
			continue
		}
		c.items = repaired
		c.itemIDs = nil // repaired items are generalized; IDs are stale
		transRepairs++
	}
	sw.Mark("transaction")

	anon := ds.Clone()
	for _, c := range clusters {
		for j, r := range c.records {
			for i, q := range qis {
				anon.Records[r].Values[q] = c.relVals[i]
			}
			anon.Records[r].Items = c.items[j]
		}
	}
	sw.Mark("recode")
	return &Result{
		Anonymized:         anon,
		Phases:             sw.Phases(),
		Merges:             merges,
		Clusters:           len(clusters),
		TransRepairs:       transRepairs,
		SuppressedClusters: suppressed,
	}, nil
}

// referenceClustersFromClasses rebuilds cluster state from the relational phase's
// equivalence classes.
func referenceClustersFromClasses(orig, anon *dataset.Dataset, qis []int, hh []*hierarchy.Hierarchy, view *privacy.TxView) []*refCluster {
	classes := privacy.Partition(anon, qis)
	out := make([]*refCluster, len(classes))
	for i, cl := range classes {
		c := &refCluster{records: append([]int(nil), cl.Records...), relVals: cl.Signature}
		c.resolveNodes(hh)
		c.items = itemsOf(orig, c.records)
		c.itemIDs = make([][]uint32, len(c.records))
		for j, r := range c.records {
			c.itemIDs[j] = view.Txs[r]
		}
		out[i] = c
	}
	return out
}

// referenceRelDelta computes the average per-attribute NCP increase of merging two
// clusters: NCP(LCA of both signatures) minus the size-weighted current
// NCP. Runs on the clusters' cached signature nodes — LCA walks and O(1)
// NCP reads, no value lookups.
func referenceRelDelta(a, b *refCluster, hh []*hierarchy.Hierarchy) (float64, []*hierarchy.Node, error) {
	if a.relNodes == nil || b.relNodes == nil {
		return 0, nil, fmt.Errorf("rt: cluster signature unknown to hierarchy")
	}
	newNodes := make([]*hierarchy.Node, len(a.relNodes))
	delta := 0.0
	na, nb := float64(len(a.records)), float64(len(b.records))
	for i, h := range hh {
		lca := hierarchy.LCANodes(a.relNodes[i], b.relNodes[i])
		newNodes[i] = lca
		newNCP := h.NCPNode(lca)
		aNCP := h.NCPNode(a.relNodes[i])
		bNCP := h.NCPNode(b.relNodes[i])
		cur := (aNCP*na + bNCP*nb) / (na + nb)
		delta += newNCP - cur
	}
	return delta / float64(len(hh)), newNodes, nil
}

// referenceRelDeltaCost is relDelta without materializing the merged signature
// nodes — the candidate-scoring scan only needs the cost, and runs
// O(clusters) times per traversal step. The float operations are the
// same sequence as relDelta's, so the scores (and the partner choice)
// are bit-identical.
func referenceRelDeltaCost(a, b *refCluster, hh []*hierarchy.Hierarchy) (float64, error) {
	if a.relNodes == nil || b.relNodes == nil {
		return 0, fmt.Errorf("rt: cluster signature unknown to hierarchy")
	}
	delta := 0.0
	na, nb := float64(len(a.records)), float64(len(b.records))
	for i, h := range hh {
		lca := hierarchy.LCANodes(a.relNodes[i], b.relNodes[i])
		newNCP := h.NCPNode(lca)
		aNCP := h.NCPNode(a.relNodes[i])
		bNCP := h.NCPNode(b.relNodes[i])
		cur := (aNCP*na + bNCP*nb) / (na + nb)
		delta += newNCP - cur
	}
	return delta / float64(len(hh)), nil
}

// referenceTransCost estimates the transaction-side repair work remaining after
// merging: the number of k^m violations in the merged multiset, normalized
// by the merged item count. Counting runs on the clusters' shared item
// IDs — no merged copy, no violation list.
func referenceTransCost(a, b *refCluster, k, m int, counter *privacy.KMCounter) float64 {
	total := 0
	for _, tr := range a.itemIDs {
		total += len(tr)
	}
	for _, tr := range b.itemIDs {
		total += len(tr)
	}
	if total == 0 {
		return 0
	}
	vs := counter.Count(k, m, 0, a.itemIDs, b.itemIDs)
	return float64(vs) / float64(total)
}

// referencePickPartner selects the best merge partner for cluster i per the bounding
// method, returning the partner index (or -1) and the merge's relational
// delta. Scoring every candidate pair is the traversal's hot path, so the
// scan polls the options context and bails out with -1 when cancelled; the
// caller's own poll then surfaces the context error.
func referencePickPartner(clusters []*refCluster, i int, hh []*hierarchy.Hierarchy, opts Options, counter *privacy.KMCounter) (int, float64) {
	type cand struct {
		j        int
		rd       float64
		tc       float64
		combined float64
	}
	var cands []cand
	for j, other := range clusters {
		if ctxErr(opts.Ctx) != nil {
			return -1, 0
		}
		if j == i || other == nil {
			continue
		}
		rd, err := referenceRelDeltaCost(clusters[i], other, hh)
		if err != nil {
			continue
		}
		c := cand{j: j, rd: rd}
		if opts.Flavor != RMerge {
			c.tc = referenceTransCost(clusters[i], other, opts.K, opts.M, counter)
		}
		cands = append(cands, c)
	}
	if len(cands) == 0 {
		return -1, 0
	}
	switch opts.Flavor {
	case RMerge:
		sort.Slice(cands, func(a, b int) bool { return cands[a].rd < cands[b].rd })
	case TMerge:
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].tc != cands[b].tc {
				return cands[a].tc < cands[b].tc
			}
			return cands[a].rd < cands[b].rd
		})
	default: // RTMerge
		// Normalize relational deltas to [0,1] by the max candidate.
		maxRD := 0.0
		for _, c := range cands {
			if c.rd > maxRD {
				maxRD = c.rd
			}
		}
		for idx := range cands {
			nrd := 0.0
			if maxRD > 0 {
				nrd = cands[idx].rd / maxRD
			}
			cands[idx].combined = opts.Weight*nrd + (1-opts.Weight)*cands[idx].tc
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].combined < cands[b].combined })
	}
	return cands[0].j, cands[0].rd
}

// referenceMergeClusters folds cluster j into cluster i, updating signatures to the
// per-attribute LCA. Cluster j's slot becomes nil.
func referenceMergeClusters(clusters []*refCluster, i, j int, hh []*hierarchy.Hierarchy) {
	a, b := clusters[i], clusters[j]
	_, newNodes, err := referenceRelDelta(a, b, hh)
	if err != nil {
		return
	}
	newVals := make([]string, len(newNodes))
	for i, n := range newNodes {
		newVals[i] = n.Value
	}
	a.relVals = newVals
	a.relNodes = newNodes
	a.records = append(a.records, b.records...)
	a.items = append(a.items, b.items...)
	a.itemIDs = append(a.itemIDs, b.itemIDs...)
	a.clean = false
	a.merges += b.merges + 1
	clusters[j] = nil
}

// referenceRepairCluster runs the transaction algorithm on the cluster's records
// alone and returns the anonymized item lists (aligned with c.records).
func referenceRepairCluster(ds *dataset.Dataset, c *refCluster, transRun func(*dataset.Dataset, transaction.Options) (*transaction.Result, error), opts Options) ([][]string, error) {
	sub := dataset.New(ds.Attrs, ds.TransName)
	for idx, r := range c.records {
		rec := dataset.Record{
			Values: append([]string(nil), ds.Records[r].Values...),
			Items:  append([]string(nil), c.items[idx]...),
		}
		if err := sub.AddRecord(rec); err != nil {
			return nil, err
		}
	}
	res, err := transRun(sub, transaction.Options{
		Ctx: opts.Ctx,
		K:   opts.K, M: opts.M,
		ItemHierarchy: opts.ItemHierarchy,
		Policy:        clusterPolicy(sub, opts),
	})
	if err != nil {
		return nil, err
	}
	// Mapping-based algorithms protect their policy but do not guarantee
	// k^m; verify and reject so the caller can fall back.
	if !privacy.IsKMAnonymous(privacy.Transactions(res.Anonymized, nil), opts.K, opts.M) {
		return nil, fmt.Errorf("rt: cluster repair by %s left k^m violations", opts.TransAlgo)
	}
	out := make([][]string, len(c.records))
	for i := range c.records {
		out[i] = res.Anonymized.Records[i].Items
	}
	return out, nil
}

// anonymizedBytes serializes a result's dataset for byte comparison.
func anonymizedBytes(t *testing.T, ds *dataset.Dataset) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := ds.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// assertRTEquiv runs Anonymize and referenceAnonymize and fails on any
// difference in counts or anonymized bytes.
func assertRTEquiv(t *testing.T, label string, ds *dataset.Dataset, opts Options) {
	t.Helper()
	got, err := Anonymize(ds, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, err := referenceAnonymize(ds, opts)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	if got.Merges != want.Merges || got.Clusters != want.Clusters || got.TransRepairs != want.TransRepairs || got.SuppressedClusters != want.SuppressedClusters {
		t.Fatalf("%s: merges/clusters/repairs/suppressed %d/%d/%d/%d, reference %d/%d/%d/%d", label,
			got.Merges, got.Clusters, got.TransRepairs, got.SuppressedClusters,
			want.Merges, want.Clusters, want.TransRepairs, want.SuppressedClusters)
	}
	if !bytes.Equal(anonymizedBytes(t, got.Anonymized), anonymizedBytes(t, want.Anonymized)) {
		t.Fatalf("%s: anonymized output differs from the reference", label)
	}
}

var flavors = []Flavor{RMerge, TMerge, RTMerge}

func TestRTEquivTestdata(t *testing.T) {
	ds, err := dataset.LoadFile(filepath.Join("..", "..", "testdata", "patients.csv"), dataset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hs := make(generalize.Set)
	for _, name := range []string{"Age", "Gender", "Zip"} {
		h, err := hierarchy.LoadFile(name, filepath.Join("..", "..", "testdata", "hierarchies", name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		hs[name] = h
	}
	ih, err := hierarchy.LoadFile("Diagnoses", filepath.Join("..", "..", "testdata", "hierarchies", "Diagnoses.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, flavor := range flavors {
		for _, rel := range RelationalAlgos {
			for _, k := range []int{2, 3, 5} {
				for _, delta := range []float64{0, 0.3, 1} {
					opts := Options{K: k, M: 2, Delta: delta, Hierarchies: hs, ItemHierarchy: ih,
						RelAlgo: rel, TransAlgo: "apriori", Flavor: flavor}
					assertRTEquiv(t, fmt.Sprintf("patients %s %s k=%d delta=%v", flavor, rel, k, delta), ds, opts)
				}
			}
		}
	}
}

func TestRTEquivCensus(t *testing.T) {
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		ds, hs, ih := rtData(t, 120+int(seed)*30, seed)
		for _, flavor := range flavors {
			for _, k := range []int{2, 7} {
				for _, delta := range []float64{0.1, 1} {
					opts := baseOpts(hs, ih)
					opts.Flavor, opts.K, opts.Delta = flavor, k, delta
					assertRTEquiv(t, fmt.Sprintf("census seed=%d %s k=%d delta=%v", seed, flavor, k, delta), ds, opts)
				}
			}
		}
	}
	// The ablation path: ungated merges, and a transaction algorithm
	// other than Apriori repairing what merging leaves.
	ds, hs, ih := rtData(t, 200, 11)
	for _, flavor := range flavors {
		opts := baseOpts(hs, ih)
		opts.Flavor, opts.UngatedMerges = flavor, true
		assertRTEquiv(t, fmt.Sprintf("census ungated %s", flavor), ds, opts)
		opts = baseOpts(hs, ih)
		opts.Flavor, opts.RelAlgo, opts.TransAlgo = flavor, "topdown", "lra"
		assertRTEquiv(t, fmt.Sprintf("census topdown+lra %s", flavor), ds, opts)
	}
}

// randomRT draws an RT-dataset of 1-4 relational attributes, each numeric
// or categorical, with an auto-generated hierarchy of random fanout 2-6
// per attribute, and Zipf-like baskets over a small item domain. dup
// shrinks every relational domain to at most three values, so clusters
// share signatures and merge costs tie often.
func randomRT(rng *rand.Rand, n int, dup bool) (*dataset.Dataset, generalize.Set, *hierarchy.Hierarchy, error) {
	nattr := 1 + rng.Intn(4)
	attrs := make([]dataset.Attribute, nattr)
	domains := make([]int, nattr)
	for i := range attrs {
		attrs[i].Name = "a" + strconv.Itoa(i)
		attrs[i].Kind = dataset.Categorical
		if rng.Intn(2) == 0 {
			attrs[i].Kind = dataset.Numeric
		}
		domains[i] = 1 + rng.Intn(40)
		if dup {
			domains[i] = 1 + rng.Intn(3)
		}
	}
	ds := dataset.New(attrs, "items")
	items := 5 + rng.Intn(20)
	for r := 0; r < n; r++ {
		vals := make([]string, nattr)
		for i := range vals {
			u := rng.Float64()
			v := int(u * u * float64(domains[i]))
			if attrs[i].Kind == dataset.Numeric {
				vals[i] = strconv.Itoa(20 + 5*v)
			} else {
				vals[i] = fmt.Sprintf("c%02d", v)
			}
		}
		seen := map[int]bool{}
		for size := 1 + rng.Intn(4); len(seen) < size; {
			u := rng.Float64()
			seen[int(u*u*float64(items))] = true
		}
		var basket []string
		for id := 0; id < items; id++ {
			if seen[id] {
				basket = append(basket, gen.ItemName(id))
			}
		}
		if err := ds.AddRecord(dataset.Record{Values: vals, Items: basket}); err != nil {
			return nil, nil, nil, err
		}
	}
	hs := make(generalize.Set)
	for i, a := range attrs {
		fanout := 2 + rng.Intn(5)
		var h *hierarchy.Hierarchy
		var err error
		if a.Kind == dataset.Numeric {
			h, err = hierarchy.AutoNumeric(a.Name, ds.Column(i), fanout)
		} else {
			h, err = hierarchy.AutoCategorical(a.Name, ds.Column(i), fanout)
		}
		if err != nil {
			return nil, nil, nil, err
		}
		hs[a.Name] = h
	}
	ih, err := gen.ItemHierarchy(ds, 2+rng.Intn(5))
	if err != nil {
		return nil, nil, nil, err
	}
	return ds, hs, ih, nil
}

func TestRTEquivRandomHierarchies(t *testing.T) {
	cases := 30
	if testing.Short() {
		cases = 6
	}
	rng := rand.New(rand.NewSource(15))
	for c := 0; c < cases; c++ {
		k := 2 + rng.Intn(14)
		n := k + rng.Intn(300)
		ds, hs, ih, err := randomRT(rng, n, c%3 == 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, flavor := range flavors {
			opts := Options{K: k, M: 1 + rng.Intn(2), Delta: rng.Float64(), Hierarchies: hs, ItemHierarchy: ih,
				RelAlgo: "cluster", TransAlgo: "apriori", Flavor: flavor}
			assertRTEquiv(t, fmt.Sprintf("case %d n=%d k=%d %s", c, n, k, flavor), ds, opts)
		}
	}
}

// TestPartnerEquivLockstep drives both traversal representations through
// the same merge sequence and compares every pick: the partner whenever
// the pick can lead to a merge (its delta is within opts.Delta), the
// delta always. Heavy-duplicate data makes equal deltas, and so the sort
// fallback, frequent.
func TestPartnerEquivLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	ties, picks := 0, 0
	for c := 0; c < 24; c++ {
		k := 2 + rng.Intn(6)
		n := 40 + rng.Intn(300)
		ds, hs, ih, err := randomRT(rng, n, c%2 == 0)
		if err != nil {
			t.Fatal(err)
		}
		flavor := flavors[c%3]
		opts := Options{K: k, M: 2, Delta: []float64{0.05, 0.5, 1}[c%3], Weight: 0.5, Hierarchies: hs, ItemHierarchy: ih, Flavor: flavor}
		qis, _ := ds.QIIndices(nil)
		hh, err := hs.ForQIs(ds, qis)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := relational.Cluster(ds, relational.Options{K: k, Hierarchies: hs})
		if err != nil {
			t.Fatal(err)
		}
		view := txView(ds, opts)
		counter := privacy.NewKMCounter(view)
		ref := referenceClustersFromClasses(ds, rel.Anonymized, qis, hh, view)
		cur := clustersFromClasses(ds, rel.Anonymized, qis, view)
		sigs := newSigTable(hh, cur)
		var cands []candidate
		for i := 0; i < len(cur); i++ {
			for cur[i] != nil {
				wantJ, wantRD := referencePickPartner(ref, i, hh, opts, counter)
				gotJ, gotRD := pickPartner(cur, i, sigs, opts, counter, &cands)
				picks++
				if minimalCandidates(cands) > 1 {
					ties++
				}
				if gotRD != wantRD || (wantRD <= opts.Delta && gotJ != wantJ) {
					t.Fatalf("case %d %s pick for %d: (%d, %v), reference (%d, %v)", c, flavor, i, gotJ, gotRD, wantJ, wantRD)
				}
				if wantJ < 0 || wantRD > opts.Delta {
					break
				}
				referenceMergeClusters(ref, i, wantJ, hh)
				mergeClusters(cur, sigs, i, wantJ)
				for x := range cur {
					if (cur[x] == nil) != (ref[x] == nil) || cur[x] != nil && fmt.Sprint(cur[x].relVals) != fmt.Sprint(ref[x].relVals) {
						t.Fatalf("case %d: cluster %d diverged after merging %d into %d", c, x, wantJ, i)
					}
				}
			}
		}
	}
	t.Logf("%d picks, %d with tied leading candidates", picks, ties)
	if ties == 0 {
		t.Fatal("no pick had tied candidates: the sort fallback went untested")
	}
}

// minimalCandidates counts the candidates at the least relational delta.
func minimalCandidates(cands []candidate) int {
	n, min := 0, 0.0
	for i, c := range cands {
		switch {
		case i == 0 || c.rd < min:
			min, n = c.rd, 1
		case c.rd == min:
			n++
		}
	}
	return n
}

// TestPartnerEquivCancelled pins the cancellation contract both pickers
// share: a cancelled context yields no partner.
func TestPartnerEquivCancelled(t *testing.T) {
	ds, hs, ih := rtData(t, 120, 5)
	opts := baseOpts(hs, ih)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts.Ctx = ctx
	qis, _ := ds.QIIndices(nil)
	hh, err := hs.ForQIs(ds, qis)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := relational.Cluster(ds, relational.Options{K: opts.K, Hierarchies: hs})
	if err != nil {
		t.Fatal(err)
	}
	view := txView(ds, opts)
	counter := privacy.NewKMCounter(view)
	cur := clustersFromClasses(ds, rel.Anonymized, qis, view)
	var cands []candidate
	if j, _ := pickPartner(cur, 0, newSigTable(hh, cur), opts, counter, &cands); j != -1 {
		t.Errorf("cancelled pick returned partner %d", j)
	}
	if j, _ := referencePickPartner(referenceClustersFromClasses(ds, rel.Anonymized, qis, hh, view), 0, hh, opts, counter); j != -1 {
		t.Errorf("cancelled reference pick returned partner %d", j)
	}
}
