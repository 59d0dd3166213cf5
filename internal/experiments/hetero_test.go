package experiments

import "testing"

// TestHeteroFigHAcceptance holds Fig H to its acceptance criteria: a
// genuinely heterogeneous rack (≥2 protocols, ≥2 replica counts,
// weighted shards) beats the same hardware misconfigured as uniform.
// The rack under chaos is the cross-protocol matrix's hetero cells.
func TestHeteroFigHAcceptance(t *testing.T) {
	_, res := FigHDetail(0.5)

	distinct := func(xs []string) int {
		seen := map[string]bool{}
		for _, x := range xs {
			seen[x] = true
		}
		return len(seen)
	}
	if distinct(res.Protocols) < 2 {
		t.Fatalf("rack runs %v: want ≥2 distinct protocols", res.Protocols)
	}
	sizes := map[int]bool{}
	for _, n := range res.Replicas {
		sizes[n] = true
	}
	if len(sizes) < 2 {
		t.Fatalf("rack sizes %v: want ≥2 distinct replica counts", res.Replicas)
	}

	// Weighted shards: the 7-replica group owns visibly more routing
	// slots than either 3-replica group, and every slot stays owned.
	total := 0
	for _, n := range res.SlotShare {
		total += n
	}
	if total != 256 {
		t.Fatalf("slot shares %v sum to %d", res.SlotShare, total)
	}
	if !(res.SlotShare[0] > res.SlotShare[1] && res.SlotShare[0] > res.SlotShare[2]) {
		t.Fatalf("slot shares %v do not favor the big group", res.SlotShare)
	}

	// The weighted configuration beats the uniform misconfiguration on
	// aggregate throughput (the margin at this scale is ≈1.1×; 1.03 is
	// the regression floor).
	if res.Speedup < 1.03 {
		t.Fatalf("hetero %.2fM vs uniform %.2fM: speedup %.3f < 1.03",
			res.HeteroThroughput/1e6, res.BaselineThroughput/1e6, res.Speedup)
	}
	// The capacity-weighted router visibly loads the big shard more.
	if !(res.GroupOps[0] > res.GroupOps[1] && res.GroupOps[0] > res.GroupOps[2]) {
		t.Fatalf("GroupOps %v do not favor the big group", res.GroupOps)
	}
}
