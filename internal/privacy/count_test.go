package privacy

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestKMCounterMatchesViolations pins KMCounter.Count to the length of
// the violation list KMViolations builds over the concatenated groups, for
// item domains on both sides of denseItems (dense pair table and map), one
// counter reused across every call so stale counts would show.
func TestKMCounterMatchesViolations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, domain := range []int{12, 60, denseItems + 200} {
		names := make([]string, domain)
		for i := range names {
			names[i] = fmt.Sprintf("i%04d", i)
		}
		var items [][]string
		for r := 0; r < 400; r++ {
			seen := map[int]bool{}
			for n := 1 + rng.Intn(7); len(seen) < n; {
				// Squaring skews popularity so some itemsets reach k.
				u := rng.Float64()
				seen[int(u*u*float64(domain))] = true
			}
			var tx []string
			for id := 0; id < domain; id++ {
				if seen[id] {
					tx = append(tx, names[id])
				}
			}
			items = append(items, tx)
		}
		view := InternTxView(items)
		counter := NewKMCounter(view)
		for trial := 0; trial < 40; trial++ {
			var groups [][][]uint32
			var flat [][]string
			for g := 0; g < 1+rng.Intn(3); g++ {
				lo := rng.Intn(len(items))
				hi := lo + rng.Intn(len(items)-lo+1)
				groups = append(groups, view.Txs[lo:hi])
				flat = append(flat, items[lo:hi]...)
			}
			k, m := 2+rng.Intn(5), 1+rng.Intn(3)
			want := len(KMViolations(flat, k, m, 0))
			if got := counter.Count(k, m, 0, groups...); got != want {
				t.Fatalf("domain=%d trial=%d k=%d m=%d: Count %d, KMViolations %d", domain, trial, k, m, got, want)
			}
			if got := counter.Anonymous(k, m, groups...); got != (want == 0) {
				t.Fatalf("domain=%d trial=%d k=%d m=%d: Anonymous %v with %d violations", domain, trial, k, m, got, want)
			}
		}
	}
}
