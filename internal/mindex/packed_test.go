package mindex

// Internal tests for the packed predecessor structure: findInterval
// must agree with the binary-search definition on every column, for
// every breakpoint layout — clustered starts, starts straddling word
// boundaries, and interval counts on both sides of packedMinIvals.

import (
	"math/rand"
	"sort"
	"testing"
)

// refFindInterval is the pre-packing definition: smallest index with
// bp[idx] > j, minus one.
func refFindInterval(bp []int32, j int) int32 {
	idx := sort.Search(len(bp), func(i int) bool { return int(bp[i]) > j })
	return int32(idx - 1)
}

func TestFindIntervalMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	layouts := [][]int32{
		{0, 200},                                 // single interval, below threshold
		{0, 1, 2, 3, 4, 5, 6, 200},               // clustered at zero, K=7
		{0, 63, 64, 65, 127, 128, 129, 191, 200}, // word boundaries, K=8
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 200},         // dense prefix, K=9
	}
	for trial := 0; trial < 40; trial++ {
		n := 65 + rng.Intn(400)
		k := 2 + rng.Intn(20)
		starts := map[int32]bool{0: true}
		for len(starts) < k {
			starts[int32(1+rng.Intn(n-1))] = true
		}
		bp := make([]int32, 0, len(starts)+1)
		for s := range starts {
			bp = append(bp, s)
		}
		sort.Slice(bp, func(a, b int) bool { return bp[a] < bp[b] })
		bp = append(bp, int32(n))
		layouts = append(layouts, bp)
	}
	for li, bp := range layouts {
		n := int(bp[len(bp)-1])
		nd := env{bp: bp, own: make([]int32, len(bp)-1)}
		nd.buildPacked(n)
		if len(nd.own) >= packedMinIvals && nd.pk == nil {
			t.Fatalf("layout %d: K=%d node did not build packed structure", li, len(nd.own))
		}
		if len(nd.own) < packedMinIvals && nd.pk != nil {
			t.Fatalf("layout %d: K=%d node built packed structure below threshold", li, len(nd.own))
		}
		for j := 0; j < n; j++ {
			if got, want := nd.findInterval(j), refFindInterval(bp, j); got != want {
				t.Fatalf("layout %d: findInterval(%d) = %d, want %d (bp=%v, packed=%v)",
					li, j, got, want, bp, nd.pk != nil)
			}
		}
	}
}
