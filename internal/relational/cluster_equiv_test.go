package relational

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/gen"
	"secreta/internal/generalize"
	"secreta/internal/hierarchy"
)

// This file preserves the linear-scan greedy clustering verbatim and pins
// that the indexed absorber (cost tables plus the pruned k-d tree) is
// observationally identical: same members in the same order, same LCAs,
// byte-identical anonymized output — on the testdata fixture, generated
// census data, random hierarchies of every fanout from 2 to 6 and a
// heavy-duplicate dataset that makes most costs tie.

// referenceRecordNodes is the scan's recordNodes: every record's QI values
// resolved to hierarchy nodes.
func referenceRecordNodes(ds *dataset.Dataset, qis []int, hh []*hierarchy.Hierarchy) ([][]*hierarchy.Node, error) {
	out := make([][]*hierarchy.Node, len(ds.Records))
	memo := make([]map[string]*hierarchy.Node, len(qis))
	for i := range memo {
		memo[i] = make(map[string]*hierarchy.Node)
	}
	for r := range ds.Records {
		nodes := make([]*hierarchy.Node, len(qis))
		for i, q := range qis {
			v := ds.Records[r].Values[q]
			node, ok := memo[i][v]
			if !ok {
				node = hh[i].Node(v)
				if node == nil {
					return nil, fmt.Errorf("cluster: hierarchy %q misses value %q", ds.Attrs[q].Name, v)
				}
				memo[i][v] = node
			}
			nodes[i] = node
		}
		out[r] = nodes
	}
	return out, nil
}

// referenceCostOfAdding is the scan's costOfAdding.
func referenceCostOfAdding(recNodes [][]*hierarchy.Node, hh []*hierarchy.Hierarchy, cl *clusterState, r int, lca []*hierarchy.Node) float64 {
	delta := 0.0
	for i := range cl.lca {
		node := hierarchy.LCANodes(cl.lca[i], recNodes[r][i])
		lca[i] = node
		delta += hh[i].NCPNode(node) - hh[i].NCPNode(cl.lca[i])
	}
	return delta
}

// referenceBuildClusters is the scan's buildClusters: every absorption
// scans every unassigned record.
func referenceBuildClusters(ds *dataset.Dataset, qis []int, hh []*hierarchy.Hierarchy, opts Options) ([]*clusterState, error) {
	k := opts.K
	n := len(ds.Records)
	recNodes, err := referenceRecordNodes(ds, qis, hh)
	if err != nil {
		return nil, err
	}
	unassigned := make([]bool, n)
	remaining := n
	for i := range unassigned {
		unassigned[i] = true
	}
	newCluster := func(seed int) *clusterState {
		return &clusterState{
			members: []int{seed},
			lca:     append([]*hierarchy.Node(nil), recNodes[seed]...),
		}
	}

	// Two reusable LCA buffers serve every cost scan: cand receives each
	// candidate's nodes, best keeps the running winner's. The winner is
	// committed by copying into the cluster's own slice, so the O(n^2·k)
	// scans allocate nothing.
	cand := make([]*hierarchy.Node, len(qis))
	best := make([]*hierarchy.Node, len(qis))

	var clusters []*clusterState
	next := 0
	for remaining >= k {
		for !unassigned[next] {
			next++
		}
		seed := next
		cl := newCluster(seed)
		unassigned[seed] = false
		remaining--
		for len(cl.members) < k {
			// Each absorption scans every unassigned record; polling here
			// bounds cancellation delay to one scan.
			if err := opts.interrupted(); err != nil {
				return nil, err
			}
			bestR := -1
			bestCost := 0.0
			for r := 0; r < n; r++ {
				if !unassigned[r] {
					continue
				}
				cost := referenceCostOfAdding(recNodes, hh, cl, r, cand)
				if bestR < 0 || cost < bestCost {
					bestR, bestCost = r, cost
					best, cand = cand, best
					if cost == 0 {
						break // cannot do better than free
					}
				}
			}
			if bestR < 0 {
				break
			}
			cl.members = append(cl.members, bestR)
			copy(cl.lca, best)
			unassigned[bestR] = false
			remaining--
		}
		clusters = append(clusters, cl)
	}
	// Leftovers: attach each to the cluster whose LCAs grow the least.
	for r := 0; r < n; r++ {
		if !unassigned[r] {
			continue
		}
		if err := opts.interrupted(); err != nil {
			return nil, err
		}
		bestC := -1
		bestCost := 0.0
		for ci, cl := range clusters {
			cost := referenceCostOfAdding(recNodes, hh, cl, r, cand)
			if bestC < 0 || cost < bestCost {
				bestC, bestCost = ci, cost
				best, cand = cand, best
			}
		}
		if bestC < 0 {
			// No cluster exists (n < k was rejected; n == 0 cannot reach
			// here). Defensive: make a singleton cluster.
			clusters = append(clusters, newCluster(r))
			unassigned[r] = false
			continue
		}
		clusters[bestC].members = append(clusters[bestC].members, r)
		copy(clusters[bestC].lca, best)
		unassigned[r] = false
	}
	return clusters, nil
}

// referenceCluster is Cluster over referenceBuildClusters.
func referenceCluster(ds *dataset.Dataset, opts Options) (*dataset.Dataset, int, error) {
	qis, hh, err := opts.validate(ds)
	if err != nil {
		return nil, 0, err
	}
	clusters, err := referenceBuildClusters(ds, qis, hh, opts)
	if err != nil {
		return nil, 0, err
	}
	anon := ds.Clone()
	for _, cl := range clusters {
		for i, q := range qis {
			for _, r := range cl.members {
				anon.Records[r].Values[q] = cl.lca[i].Value
			}
		}
	}
	return anon, len(clusters), nil
}

// assertClusterEquiv runs both clusterings and fails on the first
// difference in members, LCAs, cluster count or anonymized bytes.
func assertClusterEquiv(t *testing.T, label string, ds *dataset.Dataset, hs generalize.Set, k int) {
	t.Helper()
	opts := Options{K: k, Hierarchies: hs}
	qis, hh, err := opts.validate(ds)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, err := referenceBuildClusters(ds, qis, hh, opts)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	got, _, err := buildClusters(ds, qis, hh, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d clusters, reference %d", label, len(got), len(want))
	}
	for c := range want {
		if fmt.Sprint(got[c].members) != fmt.Sprint(want[c].members) {
			t.Fatalf("%s: cluster %d members %v, reference %v", label, c, got[c].members, want[c].members)
		}
		for i := range want[c].lca {
			if got[c].lca[i] != want[c].lca[i] {
				t.Fatalf("%s: cluster %d attr %d LCA %q, reference %q", label, c, i, got[c].lca[i].Value, want[c].lca[i].Value)
			}
		}
	}
	res, err := Cluster(ds, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	ref, refClusters, err := referenceCluster(ds, opts)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	if res.Clusters != refClusters {
		t.Fatalf("%s: Result.Clusters %d, reference %d", label, res.Clusters, refClusters)
	}
	var gb, wb bytes.Buffer
	if err := res.Anonymized.WriteJSON(&gb); err != nil {
		t.Fatal(err)
	}
	if err := ref.WriteJSON(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("%s: anonymized output differs from the reference", label)
	}
}

func TestClusterEquivTestdata(t *testing.T) {
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
	for k := 1; k <= 10; k++ {
		assertClusterEquiv(t, fmt.Sprintf("patients k=%d", k), ds, hs, k)
	}
}

func TestClusterEquivCensus(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		ds := gen.Census(gen.Config{Records: 120 + int(seed)*11, Seed: seed})
		hs, err := gen.Hierarchies(ds, 3+int(seed%3))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 3, 7, 12} {
			assertClusterEquiv(t, fmt.Sprintf("census seed=%d k=%d", seed, k), ds, hs, k)
		}
	}
	// One larger run, where the tree is several levels deep.
	ds := gen.Census(gen.Config{Records: 1200, Seed: 1})
	hs, err := gen.Hierarchies(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	assertClusterEquiv(t, "census n=1200 k=7", ds, hs, 7)
}

// randomRelational draws a dataset of 1-5 attributes, each numeric or
// categorical over a random domain, with skewed value frequencies, and an
// auto-generated hierarchy of random fanout 2-6 per attribute. dup
// shrinks every domain to at most three values, so most records share a
// QI tuple and most candidate costs tie.
func randomRelational(rng *rand.Rand, n int, dup bool) (*dataset.Dataset, generalize.Set, error) {
	nattr := 1 + rng.Intn(5)
	attrs := make([]dataset.Attribute, nattr)
	domains := make([]int, nattr)
	for i := range attrs {
		attrs[i].Name = "a" + strconv.Itoa(i)
		if rng.Intn(2) == 0 {
			attrs[i].Kind = dataset.Numeric
		} else {
			attrs[i].Kind = dataset.Categorical
		}
		domains[i] = 1 + rng.Intn(60)
		if dup {
			domains[i] = 1 + rng.Intn(3)
		}
	}
	ds := dataset.New(attrs, "")
	for r := 0; r < n; r++ {
		vals := make([]string, nattr)
		for i := range vals {
			// Squaring a uniform draw skews frequencies toward low values.
			u := rng.Float64()
			v := int(u * u * float64(domains[i]))
			if attrs[i].Kind == dataset.Numeric {
				vals[i] = strconv.Itoa(10 + 3*v)
			} else {
				vals[i] = fmt.Sprintf("c%02d", v)
			}
		}
		if err := ds.AddRecord(dataset.Record{Values: vals}); err != nil {
			return nil, nil, err
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
			return nil, nil, err
		}
		hs[a.Name] = h
	}
	return ds, hs, nil
}

func TestClusterEquivRandomHierarchies(t *testing.T) {
	cases := 60
	if testing.Short() {
		cases = 12
	}
	rng := rand.New(rand.NewSource(15))
	for c := 0; c < cases; c++ {
		k := 2 + rng.Intn(14)
		n := k + rng.Intn(400)
		ds, hs, err := randomRelational(rng, n, false)
		if err != nil {
			t.Fatal(err)
		}
		if c%4 == 3 {
			generalizeSome(rng, ds, hs)
		}
		assertClusterEquiv(t, fmt.Sprintf("case %d n=%d k=%d", c, n, k), ds, hs, k)
	}
}

// generalizeSome replaces about a fifth of the cells with a random
// ancestor of their value, so records also carry interior hierarchy
// nodes, as already-generalized input does.
func generalizeSome(rng *rand.Rand, ds *dataset.Dataset, hs generalize.Set) {
	for r := range ds.Records {
		for q, a := range ds.Attrs {
			if rng.Intn(5) != 0 {
				continue
			}
			node := hs[a.Name].Node(ds.Records[r].Values[q])
			for up := rng.Intn(3); up > 0 && node.Parent != nil; up-- {
				node = node.Parent
			}
			ds.Records[r].Values[q] = node.Value
		}
	}
}

func TestClusterEquivHeavyDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for c := 0; c < 20; c++ {
		k := 2 + rng.Intn(14)
		n := k + rng.Intn(600)
		ds, hs, err := randomRelational(rng, n, true)
		if err != nil {
			t.Fatal(err)
		}
		assertClusterEquiv(t, fmt.Sprintf("dup case %d n=%d k=%d", c, n, k), ds, hs, k)
	}
}

// TestClusterWorkSubquadratic pins the absorption search's scaling without
// timing anything: candidate costs evaluated plus index nodes visited,
// at 2.5k and 10k census records. A scan of every unassigned record per
// absorption quadruples-squared to 16x; the bound allows an exponent of
// 1.3 (4^1.3 ≈ 6.06).
func TestClusterWorkSubquadratic(t *testing.T) {
	work := func(n int) int {
		ds := gen.Census(gen.Config{Records: n, Seed: 1})
		hs, err := gen.Hierarchies(ds, 4)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{K: 7, Hierarchies: hs}
		qis, hh, err := opts.validate(ds)
		if err != nil {
			t.Fatal(err)
		}
		_, w, err := buildClusters(ds, qis, hh, opts)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	small, large := work(2500), work(10000)
	ratio := float64(large) / float64(small)
	t.Logf("work: %d at 2.5k, %d at 10k, ratio %.2f", small, large, ratio)
	if ratio > 6.06 {
		t.Errorf("work grew %.2fx from 2.5k to 10k records (> 4^1.3): the absorption search is not subquadratic", ratio)
	}
}
