package relational

import (
	"fmt"
	"math"
	"slices"

	"secreta/internal/dataset"
	"secreta/internal/hierarchy"
	"secreta/internal/timing"
)

// Cluster implements the greedy clustering-based k-anonymization of Poulis
// et al. (ECML/PKDD 2013): records are grouped into clusters of at least k
// by repeatedly seeding a cluster and absorbing the records whose addition
// increases the cluster's generalization cost (per-attribute LCA NCP) the
// least; leftover records join their cheapest cluster. Each cluster is then
// locally recoded to its per-attribute least common ancestors, so different
// clusters can use different generalization granularities (local recoding),
// which typically preserves far more utility than full-domain schemes.
func Cluster(ds *dataset.Dataset, opts Options) (*Result, error) {
	sw := timing.Start()
	qis, hh, err := opts.validate(ds)
	if err != nil {
		return nil, err
	}
	n := len(ds.Records)
	if n > 0 && n < opts.K {
		return nil, fmt.Errorf("cluster: dataset has %d records, fewer than k=%d", n, opts.K)
	}
	sw.Mark("setup")

	clusters, _, err := buildClusters(ds, qis, hh, opts)
	if err != nil {
		return nil, err
	}
	sw.Mark("cluster")

	anon := ds.Clone()
	for _, cl := range clusters {
		for i, q := range qis {
			for _, r := range cl.members {
				anon.Records[r].Values[q] = cl.lca[i].Value
			}
		}
	}
	sw.Mark("recode")
	return &Result{Anonymized: anon, Phases: sw.Phases(), Clusters: len(clusters)}, nil
}

// clusterState tracks one cluster's members and its running per-attribute
// LCA nodes.
type clusterState struct {
	members []int
	lca     []*hierarchy.Node
}

// costOfAdding computes the NCP increase of extending the cluster's LCAs to
// cover a record whose QI nodes are nodes, summed over attributes, writing
// the new LCA nodes into lca (len(cl.lca), caller-owned scratch). Only the
// leftover pass runs it: fewer than k records, each against every cluster.
func costOfAdding(hh []*hierarchy.Hierarchy, cl *clusterState, nodes, lca []*hierarchy.Node) float64 {
	delta := 0.0
	for i := range cl.lca {
		node := hierarchy.LCANodes(cl.lca[i], nodes[i])
		lca[i] = node
		delta += hh[i].NCPNode(node) - hh[i].NCPNode(cl.lca[i])
	}
	return delta
}

// absorbLeaf is the most records one leaf of the absorber's k-d tree
// holds.
const absorbLeaf = 8

// noRecord marks an index node with no unassigned record.
const noRecord = math.MaxInt32

// pathStep is one ancestor of a cluster's LCA on one attribute: the dense
// value-ID range its subtree covers and the NCP increase of generalizing
// the LCA up to it.
type pathStep struct {
	id     int32 // preorder node ID
	lo, hi int32 // dense value IDs [lo, hi) under the node
	cost   float64
}

// absorber finds the greedy clustering's next record: the unassigned
// record whose absorption raises the growing cluster's NCP the least,
// ties going to the lowest record index. That is the argmin a scan of
// every record computes; the absorber finds the same record, with the
// same float cost, in two steps.
//
// Cost tables. Each QI column is interned to dense value IDs numbered in
// hierarchy preorder, so every subtree covers one contiguous ID range.
// Per attribute, tab[i][v] is NCP(LCA(lca_i, v)) − NCP(lca_i), the exact
// float the scan adds, and a record's cost is Σ_i tab[i][code_i] summed in
// attribute order. A table is rebuilt only when its attribute's LCA moves.
//
// Pruned index. A static k-d tree over the records' dense IDs stores, per
// node, the per-attribute ID bounds of its records, its count of
// unassigned records and its smallest unassigned record index. A node's
// cost lower bound sums, in attribute order, the cost of the lowest
// ancestor of lca_i whose ID range meets the node's bounds; per-attribute
// costs are monotone up the ancestor path and IEEE addition is monotone,
// so no record under the node costs less. The search skips a node whose
// bound exceeds the best cost, or equals it while its smallest index is
// above the best record's.
type absorber struct {
	nq         int
	ix         []*hierarchy.Index
	hh         []*hierarchy.Hierarchy
	unassigned []bool // shared with buildClusters

	// rank[i][p] counts the distinct column-i values whose preorder ID is
	// below p: a value's dense ID is rank[i][p], and the subtree [p, p+s)
	// covers dense IDs [rank[i][p], rank[i][p+s]). vals[i] maps dense IDs
	// back to preorder IDs.
	rank [][]int32
	vals [][]int32
	code []int32 // record r's dense ID on attribute i: code[r*nq+i]

	// Growing cluster: per attribute, the ancestor path of its LCA (LCA
	// first) and the cost table.
	path [][]pathStep
	tab  [][]float64

	// k-d tree in heap layout (children of j are 2j+1 and 2j+2). Node j
	// owns perm[lo[j]:hi[j]] and is a leaf when that holds at most
	// absorbLeaf records; a leaf's records are sorted by index.
	perm     []int32
	lo, hi   []int32
	box      []int32 // per node, per attribute: min, max dense ID
	count    []int32
	minIdx   []int32
	leafOf   []int32
	best     int32
	bestCost float64
	// work counts index nodes visited plus candidate costs evaluated —
	// the search's hardware-independent cost.
	work int
}

func newAbsorber(ds *dataset.Dataset, qis []int, hh []*hierarchy.Hierarchy, unassigned []bool) (*absorber, error) {
	n, nq := len(ds.Records), len(qis)
	a := &absorber{
		nq: nq, hh: hh, unassigned: unassigned,
		ix:   make([]*hierarchy.Index, nq),
		rank: make([][]int32, nq),
		vals: make([][]int32, nq),
		code: make([]int32, n*nq),
		path: make([][]pathStep, nq),
		tab:  make([][]float64, nq),
	}
	for i, q := range qis {
		ix := hh[i].Index()
		a.ix[i] = ix
		// Pass 1 stores preorder IDs and marks them; pass 2 ranks the
		// marks and rewrites the codes to dense IDs.
		rank := make([]int32, ix.Len()+1)
		for r := range ds.Records {
			v := ds.Records[r].Values[q]
			id, ok := ix.ID(v)
			if !ok {
				return nil, fmt.Errorf("cluster: hierarchy %q misses value %q", ds.Attrs[q].Name, v)
			}
			a.code[r*nq+i] = id
			rank[id] = 1
		}
		distinct := int32(0)
		for p, seen := range rank[:ix.Len()] {
			rank[p] = distinct
			distinct += seen
		}
		rank[ix.Len()] = distinct
		vals := make([]int32, distinct)
		for r := 0; r < n; r++ {
			d := rank[a.code[r*nq+i]]
			vals[d] = a.code[r*nq+i]
			a.code[r*nq+i] = d
		}
		a.rank[i], a.vals[i] = rank, vals
		a.tab[i] = make([]float64, distinct)
		maxDepth := int32(0)
		for _, p := range vals {
			maxDepth = max(maxDepth, ix.Depth(p))
		}
		a.path[i] = make([]pathStep, 0, maxDepth+1)
	}
	a.build(n)
	return a, nil
}

// build lays out the k-d tree over all n records.
func (a *absorber) build(n int) {
	size := 1
	for s := n; s > absorbLeaf; s = (s + 1) / 2 {
		size = 2*size + 1
	}
	a.perm = make([]int32, n)
	for r := range a.perm {
		a.perm[r] = int32(r)
	}
	a.lo = make([]int32, size)
	a.hi = make([]int32, size)
	a.box = make([]int32, 2*a.nq*size)
	a.count = make([]int32, size)
	a.minIdx = make([]int32, size)
	a.leafOf = make([]int32, n)
	for j := range a.minIdx {
		a.minIdx[j] = noRecord
	}
	a.buildNode(0, 0, int32(n))
}

func (a *absorber) buildNode(j, lo, hi int32) {
	a.lo[j], a.hi[j] = lo, hi
	a.count[j] = hi - lo
	box := a.box[2*a.nq*int(j) : 2*a.nq*int(j+1)]
	for i := 0; i < a.nq; i++ {
		box[2*i], box[2*i+1] = math.MaxInt32, -1
	}
	for _, r := range a.perm[lo:hi] {
		for i, d := range a.code[int(r)*a.nq : int(r+1)*a.nq] {
			box[2*i] = min(box[2*i], d)
			box[2*i+1] = max(box[2*i+1], d)
		}
	}
	recs := a.perm[lo:hi]
	if hi-lo <= absorbLeaf {
		slices.Sort(recs)
		for _, r := range recs {
			a.leafOf[r] = j
		}
		if len(recs) > 0 {
			a.minIdx[j] = recs[0]
		}
		return
	}
	// Split at the median of the attribute whose bounds span the most
	// general hierarchy node: that is the attribute whose lower bound is
	// loosest.
	dim, spread := 0, -1.0
	for i := 0; i < a.nq; i++ {
		ix := a.ix[i]
		span := hierarchy.LCANodes(ix.Node(a.vals[i][box[2*i]]), ix.Node(a.vals[i][box[2*i+1]]))
		if s := a.hh[i].NCPNode(span); s > spread {
			dim, spread = i, s
		}
	}
	slices.SortFunc(recs, func(x, y int32) int {
		if dx, dy := a.code[int(x)*a.nq+dim], a.code[int(y)*a.nq+dim]; dx != dy {
			return int(dx - dy)
		}
		return int(x - y)
	})
	mid := lo + (hi-lo)/2
	a.buildNode(2*j+1, lo, mid)
	a.buildNode(2*j+2, mid, hi)
	a.minIdx[j] = min(a.minIdx[2*j+1], a.minIdx[2*j+2])
}

// seed starts a cluster at record r: its LCAs are r's own values.
func (a *absorber) seed(r int, cl *clusterState) {
	for i := range a.path {
		a.setLCA(i, a.vals[i][a.code[r*a.nq+i]])
		cl.lca[i] = a.ix[i].Node(a.path[i][0].id)
	}
	a.remove(r)
}

// setLCA moves attribute i's LCA to preorder node p and rebuilds the
// attribute's ancestor path and cost table.
func (a *absorber) setLCA(i int, p int32) {
	ix, h, rank := a.ix[i], a.hh[i], a.rank[i]
	base := h.NCPNode(ix.Node(p))
	path := a.path[i][:0]
	for q := p; q >= 0; q = ix.Parent(q) {
		path = append(path, pathStep{
			id: q, lo: rank[q], hi: rank[q+ix.SubtreeSize(q)],
			cost: h.NCPNode(ix.Node(q)) - base,
		})
	}
	a.path[i] = path
	tab := a.tab[i]
	for s := len(path) - 1; s >= 0; s-- {
		st := path[s]
		for d := st.lo; d < st.hi; d++ {
			tab[d] = st.cost
		}
	}
}

// absorb adds record r to the cluster, moving each LCA that does not
// already cover r's value up to the lowest ancestor that does.
func (a *absorber) absorb(r int, cl *clusterState) {
	for i, path := range a.path {
		d := a.code[r*a.nq+i]
		for s, st := range path {
			if st.lo <= d && d < st.hi {
				if s > 0 {
					a.setLCA(i, st.id)
					cl.lca[i] = a.ix[i].Node(st.id)
				}
				break
			}
		}
	}
	a.remove(r)
}

// remove drops an assigned record from its leaf's and ancestors' counts.
func (a *absorber) remove(r int) {
	j := a.leafOf[r]
	a.count[j]--
	a.minIdx[j] = noRecord
	for _, x := range a.perm[a.lo[j]:a.hi[j]] {
		if a.unassigned[x] {
			a.minIdx[j] = x
			break
		}
	}
	for j > 0 {
		j = (j - 1) / 2
		a.count[j]--
		a.minIdx[j] = min(a.minIdx[2*j+1], a.minIdx[2*j+2])
	}
}

// cost is the exact NCP increase of absorbing record r: the same float,
// term by term and in the same order, as costOfAdding.
func (a *absorber) cost(r int32) float64 {
	delta := 0.0
	for i, d := range a.code[int(r)*a.nq : int(r+1)*a.nq] {
		delta += a.tab[i][d]
	}
	return delta
}

// bound is the cost lower bound of every record under node j.
func (a *absorber) bound(j int32) float64 {
	box := a.box[2*a.nq*int(j) : 2*a.nq*int(j+1)]
	lb := 0.0
	for i, path := range a.path {
		mn, mx := box[2*i], box[2*i+1]
		for _, st := range path {
			if st.lo <= mx && mn < st.hi {
				lb += st.cost
				break
			}
		}
	}
	return lb
}

// next returns the cheapest unassigned record (lowest index among equal
// costs), or -1 when none is left.
func (a *absorber) next() int {
	a.best, a.bestCost = -1, 0
	if a.count[0] > 0 {
		a.search(0, a.bound(0))
	}
	return int(a.best)
}

// pruned reports whether no record under node j, whose cost is at least
// lb, can beat the best record found so far.
func (a *absorber) pruned(j int32, lb float64) bool {
	return a.best >= 0 && (lb > a.bestCost || lb == a.bestCost && a.minIdx[j] > a.best)
}

func (a *absorber) search(j int32, lb float64) {
	a.work++
	if a.pruned(j, lb) {
		return
	}
	if a.hi[j]-a.lo[j] <= absorbLeaf {
		for _, r := range a.perm[a.lo[j]:a.hi[j]] {
			if !a.unassigned[r] {
				continue
			}
			a.work++
			c := a.cost(r)
			if a.best < 0 || c < a.bestCost || c == a.bestCost && r < a.best {
				a.best, a.bestCost = r, c
			}
			if c == 0 {
				break // later records here have higher indexes: none beats free
			}
		}
		return
	}
	// Visit the more promising child first so the second is more often
	// pruned.
	x, y := 2*j+1, 2*j+2
	if a.count[x] == 0 {
		a.search(y, a.bound(y))
		return
	}
	if a.count[y] == 0 {
		a.search(x, a.bound(x))
		return
	}
	lx, ly := a.bound(x), a.bound(y)
	if ly < lx || ly == lx && a.minIdx[y] < a.minIdx[x] {
		x, y, lx, ly = y, x, ly, lx
	}
	a.search(x, lx)
	a.search(y, ly)
}

// buildClusters runs the greedy clustering and also returns the
// absorption search's work count (see absorber.work).
func buildClusters(ds *dataset.Dataset, qis []int, hh []*hierarchy.Hierarchy, opts Options) ([]*clusterState, int, error) {
	k := opts.K
	n := len(ds.Records)
	unassigned := make([]bool, n)
	remaining := n
	for i := range unassigned {
		unassigned[i] = true
	}
	ab, err := newAbsorber(ds, qis, hh, unassigned)
	if err != nil {
		return nil, 0, err
	}
	newCluster := func(seed int) *clusterState {
		cl := &clusterState{members: []int{seed}, lca: make([]*hierarchy.Node, len(qis))}
		unassigned[seed] = false
		ab.seed(seed, cl)
		return cl
	}

	var clusters []*clusterState
	next := 0
	for remaining >= k {
		for !unassigned[next] {
			next++
		}
		cl := newCluster(next)
		remaining--
		for len(cl.members) < k {
			// Polling once per absorption bounds cancellation delay to
			// one search.
			if err := opts.interrupted(); err != nil {
				return nil, 0, err
			}
			r := ab.next()
			if r < 0 {
				break
			}
			cl.members = append(cl.members, r)
			unassigned[r] = false
			ab.absorb(r, cl)
			remaining--
		}
		clusters = append(clusters, cl)
	}
	// Leftovers (fewer than k): attach each to the cluster whose LCAs
	// grow the least.
	nodes := make([]*hierarchy.Node, len(qis))
	cand := make([]*hierarchy.Node, len(qis))
	best := make([]*hierarchy.Node, len(qis))
	for r := 0; r < n; r++ {
		if !unassigned[r] {
			continue
		}
		if err := opts.interrupted(); err != nil {
			return nil, 0, err
		}
		for i := range nodes {
			nodes[i] = ab.ix[i].Node(ab.vals[i][ab.code[r*ab.nq+i]])
		}
		bestC := -1
		bestCost := 0.0
		for ci, cl := range clusters {
			ab.work++
			cost := costOfAdding(hh, cl, nodes, cand)
			if bestC < 0 || cost < bestCost {
				bestC, bestCost = ci, cost
				best, cand = cand, best
			}
		}
		if bestC < 0 {
			// No cluster exists (n < k was rejected; n == 0 cannot reach
			// here). Defensive: make a singleton cluster.
			clusters = append(clusters, newCluster(r))
			continue
		}
		clusters[bestC].members = append(clusters[bestC].members, r)
		copy(clusters[bestC].lca, best)
		unassigned[r] = false
	}
	return clusters, ab.work, nil
}
