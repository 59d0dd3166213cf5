package experiments

import "testing"

// TestFigEAcceptance holds the elastic-membership experiment to its
// acceptance criteria: the rack doubles 4→8 groups under open-loop
// load with the worst bucket keeping a solid fraction of the healthy
// rate, the topology epoch moves once per membership change, the
// dead-switch shard is fully re-covered on the survivor. Retire and
// add under drops are TestElasticMigrateChaosMatrix cells.
func TestFigEAcceptance(t *testing.T) {
	series, res := FigEDetail(tiny)
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	for _, sr := range series {
		if len(sr.Points) == 0 {
			t.Fatalf("series %q is empty", sr.Name)
		}
	}
	if res.GroupsBefore != 4 || res.GroupsAfter != 8 {
		t.Fatalf("scale-out went %d → %d groups, want 4 → 8", res.GroupsBefore, res.GroupsAfter)
	}
	// Boot epoch 1 + four AddGroups; seeding handoffs must not bump it.
	if res.TopoEpochFinal != 5 {
		t.Fatalf("final topology epoch %d, want 5", res.TopoEpochFinal)
	}
	if res.BaseThroughput <= 0 {
		t.Fatal("no healthy baseline measured")
	}
	// At tiny scale the buckets are coarse and each freeze covers a
	// bigger fraction of one, so the bound here is looser than the
	// ~0.9 the full-scale run reports in EXPERIMENTS terms.
	if res.Retention < 0.5 {
		t.Fatalf("scale-out retention %.2f (base %.0f, dip %.0f)",
			res.Retention, res.BaseThroughput, res.DipThroughput)
	}
	if !res.ReassignCovered {
		t.Fatal("dead-switch reassignment left slots dark or retired-owned")
	}
}
