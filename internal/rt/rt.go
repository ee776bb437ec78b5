// Package rt implements SECRETA's anonymization of RT-datasets — datasets
// with both relational and transaction attributes — via the three bounding
// methods of Poulis et al. (ECML/PKDD 2013): Rmerger, Tmerger and RTmerger.
// A bounding method combines one of the four relational algorithms with one
// of the five transaction algorithms (the paper's 20 combinations) to
// enforce (k, k^m)-anonymity: the relational projection is k-anonymous and
// the transaction multiset of every equivalence class is k^m-anonymous.
//
// The pipeline has three phases. First the relational algorithm builds
// k-anonymous clusters. Then every cluster whose transactions violate
// k^m-anonymity is repaired, either by merging it with another cluster
// (cheap for the transaction attribute, costly for the relational one) or
// by running the transaction algorithm inside the cluster (the reverse
// trade-off). The parameter delta bounds the merge route: a merge is taken
// only when its average relational NCP increase is at most delta; with
// delta = 0 clusters never merge, with large delta they merge freely. The
// three bounding methods differ in how they pick the merge partner:
// Rmerger minimizes the relational loss increase, Tmerger minimizes the
// transaction-side repair work (residual violations of the merged
// multiset), and RTmerger minimizes a weighted combination.
package rt

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"secreta/internal/dataset"
	"secreta/internal/generalize"
	"secreta/internal/hierarchy"
	"secreta/internal/policy"
	"secreta/internal/privacy"
	"secreta/internal/relational"
	"secreta/internal/timing"
	"secreta/internal/transaction"
)

// Flavor selects the bounding method.
type Flavor int

const (
	// RMerge merges the pair with the least relational loss increase.
	RMerge Flavor = iota
	// TMerge merges the pair leaving the fewest transaction violations.
	TMerge
	// RTMerge balances both costs with Options.Weight.
	RTMerge
)

// String returns the paper's name for the flavor.
func (f Flavor) String() string {
	switch f {
	case RMerge:
		return "Rmerger"
	case TMerge:
		return "Tmerger"
	case RTMerge:
		return "RTmerger"
	default:
		return fmt.Sprintf("Flavor(%d)", int(f))
	}
}

// ParseFlavor converts a bounding method name.
func ParseFlavor(s string) (Flavor, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "rmerger", "rmerge", "r":
		return RMerge, nil
	case "tmerger", "tmerge", "t":
		return TMerge, nil
	case "rtmerger", "rtmerge", "rt":
		return RTMerge, nil
	}
	return 0, fmt.Errorf("rt: unknown bounding method %q", s)
}

// RelationalAlgos lists the supported relational algorithm names.
var RelationalAlgos = []string{"incognito", "topdown", "bottomup", "cluster"}

// TransactionAlgos lists the supported transaction algorithm names.
var TransactionAlgos = []string{"apriori", "lra", "vpa", "coat", "pcta"}

// Options configures an RT-dataset anonymization run.
type Options struct {
	// Ctx, when non-nil, is polled throughout the pipeline — inside the
	// relational phase, between merge-traversal iterations and during
	// per-cluster transaction repairs — so a cancelled run stops promptly
	// mid-algorithm with the context's error. Nil disables cancellation.
	Ctx context.Context
	// K is the relational anonymity parameter; also used as the k of
	// k^m-anonymity inside classes.
	K int
	// M is the adversary itemset size of k^m-anonymity.
	M int
	// Delta bounds the average relational NCP increase a cluster merge
	// may cost; merges above it fall back to transaction generalization.
	Delta float64
	// Weight balances RTmerger's two costs (default 0.5; 1 = all
	// relational).
	Weight float64
	// QIs names the relational quasi-identifiers (empty: all).
	QIs []string
	// Hierarchies supplies relational hierarchies.
	Hierarchies generalize.Set
	// ItemHierarchy drives hierarchy-based transaction algorithms and is
	// required for Apriori/LRA/VPA.
	ItemHierarchy *hierarchy.Hierarchy
	// Policy drives COAT/PCTA.
	Policy *policy.Policy
	// Interned, when non-nil, is the columnar interning of the input
	// dataset (dataset.Intern(ds)). The merge traversal's k^m gating runs
	// on its transaction IDs instead of re-interning the item domain, and
	// batch callers (engine.Scheduler) share one interning across every
	// configuration of a batch. Nil makes Anonymize intern once itself.
	Interned *dataset.Indexed
	// RelAlgo and TransAlgo pick the combination (see RelationalAlgos,
	// TransactionAlgos).
	RelAlgo   string
	TransAlgo string
	// Flavor picks the bounding method.
	Flavor Flavor
	// UngatedMerges disables the requirement that a merge strictly
	// reduce the merged clusters' k^m violations. It exists for the
	// ablation benchmarks: without the gate, any delta > 0 lets merges
	// cascade until the whole dataset is one class.
	UngatedMerges bool
}

// Result is the outcome of an RT anonymization.
type Result struct {
	// Anonymized satisfies (k,k^m)-anonymity.
	Anonymized *dataset.Dataset
	// Phases: "relational", "merge", "transaction" timings (plot (b) of
	// the Evaluation mode).
	Phases []timing.Phase
	// Merges is the number of cluster merges performed.
	Merges int
	// Clusters is the final number of equivalence classes.
	Clusters int
	// TransRepairs counts clusters repaired by transaction-side
	// generalization.
	TransRepairs int
	// SuppressedClusters counts clusters whose items had to be dropped
	// entirely (infeasible transaction repair).
	SuppressedClusters int
}

type cluster struct {
	records []int
	relVals []string // generalized QI values, aligned with qis
	items   [][]string
	// itemIDs mirrors items as dense IDs into the run's shared TxView —
	// the representation every k^m gating check during the merge phase
	// counts on. The inner slices alias the view (read-only); merging
	// only appends to the outer list. Stale after a transaction-phase
	// repair rewrites items, but no check runs after that point.
	itemIDs [][]uint32
	// viol caches the k^m violation count of itemIDs during the merge
	// phase (-1: not counted yet); only a merge changes it.
	viol   int
	clean  bool // no further merge processing needed
	merges int  // merge-chain length, bounded by maxMergeChain
}

// qiIndex is one QI hierarchy as the merge phase reads it: dense preorder
// node IDs and every node's NCP, computed once per run.
type qiIndex struct {
	ix  *hierarchy.Index
	ncp []float64 // by node ID: Hierarchy.NCPNode of the node
	// lcaNCP[id] memoizes NCP(LCA(focus value, id)) for the focused
	// cluster; an entry is valid while stamp[id] equals the table's pick.
	lcaNCP []float64
	stamp  []uint32
}

// sigTable holds every cluster's signature for merge scoring, one row per
// cluster slot: the node ID of each QI value, then the cluster's record
// count, or -1 there when a value is unknown to its hierarchy (such a
// cluster never merges). The partner scan, one pass over the live
// clusters per traversal step, streams this flat array and reads each
// merged NCP from a per-pick memo, so an LCA walk runs once per distinct
// node per pick rather than once per candidate.
type sigTable struct {
	qx    []qiIndex
	w     int // row width: QIs + 1
	row   []int32
	focus int    // the cluster whose partners are being scored
	pick  uint32 // generation of the lcaNCP memos
}

func newSigTable(hh []*hierarchy.Hierarchy, clusters []*cluster) *sigTable {
	t := &sigTable{qx: make([]qiIndex, len(hh)), w: len(hh) + 1}
	for i, h := range hh {
		ix := h.Index()
		ncp := make([]float64, ix.Len())
		for id := range ncp {
			ncp[id] = h.NCPNode(ix.Node(int32(id)))
		}
		t.qx[i] = qiIndex{ix: ix, ncp: ncp, lcaNCP: make([]float64, ix.Len()), stamp: make([]uint32, ix.Len())}
	}
	t.row = make([]int32, len(clusters)*t.w)
	for j, c := range clusters {
		r := t.row[j*t.w : (j+1)*t.w]
		r[len(hh)] = int32(len(c.records))
		for i, v := range c.relVals {
			id, ok := t.qx[i].ix.ID(v)
			if !ok {
				r[len(hh)] = -1
				break
			}
			r[i] = id
		}
	}
	return t
}

// setFocus makes cluster i the one relDelta scores partners for.
func (t *sigTable) setFocus(i int) {
	t.focus = i
	t.pick++
	if t.pick == 0 { // wrapped: no stamp may look current
		for _, qi := range t.qx {
			clear(qi.stamp)
		}
		t.pick = 1
	}
}

// relDelta computes the average per-attribute NCP increase of merging
// the focused cluster with cluster j: NCP(LCA of both signatures) minus
// the size-weighted current NCP. ok is false when either signature is
// unknown.
func (t *sigTable) relDelta(j int) (delta float64, ok bool) {
	q := len(t.qx)
	a, b := t.row[t.focus*t.w:(t.focus+1)*t.w], t.row[j*t.w:(j+1)*t.w]
	if a[q] < 0 || b[q] < 0 {
		return 0, false
	}
	na, nb := float64(a[q]), float64(b[q])
	for x := range t.qx {
		qi := &t.qx[x]
		if qi.stamp[b[x]] != t.pick {
			qi.lcaNCP[b[x]] = qi.ncp[qi.ix.LCA(a[x], b[x])]
			qi.stamp[b[x]] = t.pick
		}
		newNCP := qi.lcaNCP[b[x]]
		aNCP := qi.ncp[a[x]]
		bNCP := qi.ncp[b[x]]
		cur := (aNCP*na + bNCP*nb) / (na + nb)
		delta += newNCP - cur
	}
	return delta / float64(q), true
}

// merge moves row i to the per-attribute LCA of rows i and j and sums
// their record counts, returning the merged signature's values. The next
// setFocus drops memos computed for the old row.
func (t *sigTable) merge(i, j int) []string {
	q := len(t.qx)
	a, b := t.row[i*t.w:(i+1)*t.w], t.row[j*t.w:(j+1)*t.w]
	vals := make([]string, q)
	for x, qi := range t.qx {
		a[x] = qi.ix.LCA(a[x], b[x])
		vals[x] = qi.ix.Value(a[x])
	}
	a[q] += b[q]
	return vals
}

// violations returns the k^m violation count of c's transactions,
// counting them on first use after construction or a merge.
func (c *cluster) violations(counter *privacy.KMCounter, k, m int) int {
	if c.viol < 0 {
		c.viol = counter.Count(k, m, 0, c.itemIDs)
	}
	return c.viol
}

// maxMergeChain bounds how many merges one cluster may absorb; beyond it
// the transaction algorithm repairs the cluster. Merging pools similar
// transactions so less item generalization is needed, but merging alone can
// rarely satisfy k^m, so an unbounded chain would collapse the whole
// dataset into one class.
const maxMergeChain = 8

// Anonymize runs the configured combination on an RT-dataset.
func Anonymize(ds *dataset.Dataset, opts Options) (*Result, error) {
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
	clusters := clustersFromClasses(ds, relRes.Anonymized, qis, view)
	sigs := newSigTable(hh, clusters)
	merges := 0
	var cands []candidate
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
			if c.violations(counter, opts.K, opts.M) == 0 {
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
		// A cluster at the merge-chain cap goes to the transaction phase
		// whoever its partner would be, so its partner scan is skipped.
		if opts.UngatedMerges || c.merges < maxMergeChain {
			partner, delta := pickPartner(clusters, dirtyIdx, sigs, opts, counter, &cands)
			if partner >= 0 && delta <= opts.Delta {
				// Merge only when it actually helps the transaction side:
				// the merged multiset must have strictly fewer violations
				// than the two clusters separately (shared rare itemsets
				// combine support and clear k).
				helps, after := opts.UngatedMerges, -1
				if !helps {
					before := c.violations(counter, opts.K, opts.M) +
						clusters[partner].violations(counter, opts.K, opts.M)
					after = counter.Count(opts.K, opts.M, 0, c.itemIDs, clusters[partner].itemIDs)
					helps = after < before
				}
				if helps {
					mergeClusters(clusters, sigs, dirtyIdx, partner)
					c.viol = after // the merged multiset's count, when gated
					merges++
					continue
				}
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
		repaired, err := repairCluster(ds, c, transRun, opts)
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

func relationalByName(name string) (func(*dataset.Dataset, relational.Options) (*relational.Result, error), error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "incognito":
		return relational.Incognito, nil
	case "topdown":
		return relational.TopDown, nil
	case "bottomup":
		return relational.BottomUp, nil
	case "cluster":
		return relational.Cluster, nil
	}
	return nil, fmt.Errorf("rt: unknown relational algorithm %q (want one of %v)", name, RelationalAlgos)
}

func transactionByName(name string) (func(*dataset.Dataset, transaction.Options) (*transaction.Result, error), error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "apriori":
		return transaction.Apriori, nil
	case "lra":
		return transaction.LRA, nil
	case "vpa":
		return transaction.VPA, nil
	case "coat":
		return transaction.COAT, nil
	case "pcta":
		return transaction.PCTA, nil
	}
	return nil, fmt.Errorf("rt: unknown transaction algorithm %q (want one of %v)", name, TransactionAlgos)
}

// interned returns the caller-supplied batch interning when it matches
// the dataset, nil otherwise (defensive: a stale or foreign interning
// must not silently recode the wrong records).
func interned(ds *dataset.Dataset, opts Options) *dataset.Indexed {
	if opts.Interned != nil && opts.Interned.N == len(ds.Records) {
		return opts.Interned
	}
	return nil
}

// txView resolves the run's shared transaction view: the batch interning
// when the caller supplied one, a one-time interning of ds otherwise.
func txView(ds *dataset.Dataset, opts Options) *privacy.TxView {
	if ix := interned(ds, opts); ix != nil && ix.ItemDict != nil {
		return privacy.TxViewOf(ix)
	}
	items := make([][]string, len(ds.Records))
	for r := range ds.Records {
		items[r] = ds.Records[r].Items
	}
	return privacy.InternTxView(items)
}

// clustersFromClasses rebuilds cluster state from the relational phase's
// equivalence classes.
func clustersFromClasses(orig, anon *dataset.Dataset, qis []int, view *privacy.TxView) []*cluster {
	classes := privacy.Partition(anon, qis)
	out := make([]*cluster, len(classes))
	for i, cl := range classes {
		c := &cluster{records: append([]int(nil), cl.Records...), relVals: cl.Signature, viol: -1}
		c.items = itemsOf(orig, c.records)
		c.itemIDs = make([][]uint32, len(c.records))
		for j, r := range c.records {
			c.itemIDs[j] = view.Txs[r]
		}
		out[i] = c
	}
	return out
}

func itemsOf(ds *dataset.Dataset, records []int) [][]string {
	out := make([][]string, len(records))
	for i, r := range records {
		out[i] = append([]string(nil), ds.Records[r].Items...)
	}
	return out
}

// transCost estimates the transaction-side repair work remaining after
// merging: the number of k^m violations in the merged multiset, normalized
// by the merged item count. Counting runs on the clusters' shared item
// IDs — no merged copy, no violation list.
func transCost(a, b *cluster, k, m int, counter *privacy.KMCounter) float64 {
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

// ctxErr returns ctx's error, treating a nil context as never cancelled.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// candidate is one scored merge partner of pickPartner.
type candidate struct {
	j        int
	rd       float64
	tc       float64
	combined float64
}

// pickPartner selects the best merge partner for cluster i per the bounding
// method, returning the partner index (or -1) and the merge's relational
// delta. Scoring every candidate is the traversal's hot path, so the scan
// polls the options context and bails out with -1 when cancelled; the
// caller's own poll then surfaces the context error. buf is the caller's
// candidate buffer, reused across picks.
//
// Rmerger takes the candidate with the least relational delta in one
// linear pass. Only when several candidates tie at a minimum within
// opts.Delta does it sort them all: the sort is unstable, and its order
// among equal deltas (a function of the whole candidate list) is what
// decides the partner. slices.SortFunc runs the same pattern-defeating
// quicksort as the sort.Slice the bounding methods were defined with
// (both are generated from one template and consult only "less"), so it
// orders ties the same way without reflection.
func pickPartner(clusters []*cluster, i int, sigs *sigTable, opts Options, counter *privacy.KMCounter, buf *[]candidate) (int, float64) {
	cands := (*buf)[:0]
	sigs.setFocus(i)
	for j, other := range clusters {
		if ctxErr(opts.Ctx) != nil {
			return -1, 0
		}
		if j == i || other == nil {
			continue
		}
		rd, ok := sigs.relDelta(j)
		if !ok {
			continue
		}
		c := candidate{j: j, rd: rd}
		if opts.Flavor != RMerge {
			c.tc = transCost(clusters[i], other, opts.K, opts.M, counter)
		}
		cands = append(cands, c)
	}
	*buf = cands
	if len(cands) == 0 {
		return -1, 0
	}
	switch opts.Flavor {
	case RMerge:
		best, ties := 0, 1
		for idx := 1; idx < len(cands); idx++ {
			switch {
			case cands[idx].rd < cands[best].rd:
				best, ties = idx, 1
			case cands[idx].rd == cands[best].rd:
				ties++
			}
		}
		// Above opts.Delta no merge happens, so any minimal candidate
		// will do.
		if ties == 1 || cands[best].rd > opts.Delta {
			return cands[best].j, cands[best].rd
		}
		slices.SortFunc(cands, func(a, b candidate) int { return compareFloat(a.rd, b.rd) })
	case TMerge:
		slices.SortFunc(cands, func(a, b candidate) int {
			if a.tc != b.tc {
				return compareFloat(a.tc, b.tc)
			}
			return compareFloat(a.rd, b.rd)
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
		slices.SortFunc(cands, func(a, b candidate) int { return compareFloat(a.combined, b.combined) })
	}
	return cands[0].j, cands[0].rd
}

// compareFloat orders x and y by "<" alone, so that compareFloat(x, y) < 0
// exactly when x < y.
func compareFloat(x, y float64) int {
	switch {
	case x < y:
		return -1
	case y < x:
		return 1
	}
	return 0
}

// mergeClusters folds cluster j into cluster i, moving i's signature to
// the per-attribute LCA of both. Cluster j's slot becomes nil. pickPartner
// offers no cluster whose signature is unknown to its hierarchy, so both
// signatures here are known.
func mergeClusters(clusters []*cluster, sigs *sigTable, i, j int) {
	a, b := clusters[i], clusters[j]
	a.relVals = sigs.merge(i, j)
	a.records = append(a.records, b.records...)
	a.items = append(a.items, b.items...)
	a.itemIDs = append(a.itemIDs, b.itemIDs...)
	a.viol = -1
	a.clean = false
	a.merges += b.merges + 1
	clusters[j] = nil
}

// repairCluster runs the transaction algorithm on the cluster's records
// alone and returns the anonymized item lists (aligned with c.records).
func repairCluster(ds *dataset.Dataset, c *cluster, transRun func(*dataset.Dataset, transaction.Options) (*transaction.Result, error), opts Options) ([][]string, error) {
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

// clusterPolicy narrows the configured policy to the cluster's item domain,
// or synthesizes an all-items policy for mapping-based algorithms when none
// was given.
func clusterPolicy(sub *dataset.Dataset, opts Options) *policy.Policy {
	switch strings.ToLower(opts.TransAlgo) {
	case "coat", "pcta":
	default:
		return opts.Policy
	}
	pol := &policy.Policy{}
	if opts.Policy != nil {
		pol.Privacy = opts.Policy.Privacy
		pol.Utility = opts.Policy.Utility
	}
	if len(pol.Privacy) == 0 {
		// Protecting every occurring itemset of size <= m with support
		// >= k is exactly k^m-anonymity, so a COAT/PCTA repair under this
		// synthesized policy satisfies the cluster's obligation.
		pol.Privacy = policy.PrivacyFrequent(sub, 1, opts.M)
	}
	if len(pol.Utility) == 0 {
		pol.Utility = policy.UtilityTop(sub)
	}
	return pol
}
