package experiments

import "testing"

// TestFigKAcceptance holds the hot-key replication experiment to its
// acceptance criteria: on a celebrity-key workload (one key well above
// 10% of traffic, zipf-1.2 background) the promoted run must beat the
// PR 7 auto-rebalance baseline by ≥1.5× aggregate, the promotion must
// have fired autonomously, and the key must demote once the skew
// stops. Holder removal under drops is a TestHotKeyChaosMatrix cell.
//
// The run uses a mid scale rather than tiny: promotion is a control
// loop with a detect→refresh ramp, and a 2ms window would measure
// mostly the ramp.
func TestFigKAcceptance(t *testing.T) {
	series, res := FigKDetail(0.35)
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	for _, sr := range series {
		if len(sr.Points) == 0 {
			t.Fatalf("series %q is empty", sr.Name)
		}
	}
	if res.BaseThroughput <= 0 || res.HotThroughput <= 0 {
		t.Fatalf("degenerate throughputs: base %.0f hot %.0f", res.BaseThroughput, res.HotThroughput)
	}
	if res.HotShare < 0.10 {
		t.Fatalf("celebrity key drew only %.1f%% of traffic, want ≥10%%", 100*res.HotShare)
	}
	if res.Promotions == 0 {
		t.Fatal("the stuck-slot escape never promoted the key")
	}
	if res.Speedup < 1.5 {
		t.Fatalf("speedup %.2fx (base %.2f MRPS, promoted %.2f MRPS), want ≥1.5x",
			res.Speedup, res.BaseThroughput/1e6, res.HotThroughput/1e6)
	}
	if !res.Demoted {
		t.Fatal("key stayed promoted after the skew stopped")
	}
}
