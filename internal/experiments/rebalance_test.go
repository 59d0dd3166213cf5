package experiments

import "testing"

// TestFigRAcceptance holds the rebalancing experiment to its
// acceptance criteria: ≥1.5× aggregate recovery after migrating the
// hot slots away, and the routing table agreeing with the groups
// observed to serve the migrated keys. Handoffs under drops and
// reordering are TestMigrateChaosMatrix cells.
func TestFigRAcceptance(t *testing.T) {
	series, res := FigRDetail(tiny)
	if len(series) != 3 {
		t.Fatalf("%d series", len(series))
	}
	if len(series[0].Points) == 0 {
		t.Fatal("empty rebalance timeline")
	}
	if len(res.MovedSlots) == 0 {
		t.Fatal("no slots migrated")
	}
	if res.PreThroughput <= 0 {
		t.Fatal("no pre-migration throughput")
	}
	ratio := res.PostThroughput / res.PreThroughput
	if ratio < 1.5 {
		t.Fatalf("aggregate recovered only %.2fx after rebalance (pre %.0f, post %.0f)",
			ratio, res.PreThroughput, res.PostThroughput)
	}
	if !res.RouteAgrees {
		t.Fatal("a migrated key was not served by its new group")
	}
	for i, d := range res.Dests {
		if d == res.HotGroup {
			t.Fatalf("slot %d migrated back to the hot group", res.MovedSlots[i])
		}
	}
}
