package experiments

import "testing"

// TestFigMAcceptance holds the multi-switch rack experiment to its
// acceptance criteria: ≥3× aggregate throughput at 4 switches over the
// 1-switch baseline on a uniform sharded workload; crashing one of
// four switches costs < 40% of the aggregate through its epoch
// handoff; and the replacement agreement's ack count equals the live
// replicas of the crashed switch's own groups. The crash and the lossy
// cross-switch handoff under chaos are TestRackChaosMatrix cells.
func TestFigMAcceptance(t *testing.T) {
	series, res := FigMDetail(tiny)
	if len(series) != 4 {
		t.Fatalf("%d series", len(series))
	}
	if len(res.Scaling) != 3 {
		t.Fatalf("scaling sweep has %d points", len(res.Scaling))
	}
	if res.Speedup4 < 3 {
		t.Fatalf("4 switches reached only %.2fx the 1-switch baseline (want ≥ 3x)", res.Speedup4)
	}
	if res.CrashRetention < 0.6 {
		t.Fatalf("one crashed switch cost %.0f%% of the aggregate (want < 40%%): healthy %.0f, crash window %.0f",
			100*(1-res.CrashRetention), res.HealthyThroughput, res.CrashThroughput)
	}
	wantAcks := uint64(res.GroupsPerSwitch * 3) // all replicas live
	if res.AgreementAcks4 != wantAcks {
		t.Fatalf("replacement agreement acks = %d, want %d (live replicas of the crashed switch's groups only)",
			res.AgreementAcks4, wantAcks)
	}
}
