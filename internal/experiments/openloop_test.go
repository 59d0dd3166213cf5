package experiments

import (
	"testing"
	"time"

	"harmonia/internal/cluster"
)

// TestFigPShape holds Fig P to its expected shape: the achieved rate
// follows the offered ladder, mean latency stays flat below the knee,
// and every point has both curves.
func TestFigPShape(t *testing.T) {
	series := FigPerf(tiny)
	if len(series) != 2 || len(series[0].Points) != 4 || len(series[1].Points) != 4 {
		t.Fatalf("series shape: %+v", series)
	}
	mean := series[0].Points
	for i := 1; i < len(mean); i++ {
		if mean[i].X <= mean[i-1].X {
			t.Fatalf("achieved throughput not increasing along the offered ladder: %+v", mean)
		}
	}
	if mean[1].Y > 2*mean[0].Y {
		t.Fatalf("mean latency not flat below the knee: %+v", mean)
	}
}

// TestFigPChaosLinearizable replays a small recorded chaos window on
// the Fig P rack — the sharded open-loop driver under 1% drops with
// one front-end crashed and replaced mid-load — and checks every
// group's history slice. The window and rate are fixed rather than
// scaled: the phase is a correctness verdict, not a statistic, and the
// checker's search must stay decidable (per-key op counts and the
// pending-write pileup a crashed shard's unanswered open-loop ops
// create both grow with the window).
func TestFigPChaosLinearizable(t *testing.T) {
	const window = 12 * time.Millisecond
	c := figPerfCluster(317, true, 0.01)
	// The settle covers the replacement agreement.
	p := c.Play(cluster.Script{
		Loads: []cluster.LoadSpec{{
			Mode: cluster.Open, Rate: 6e5, Duration: window, Warmup: 2 * time.Millisecond,
			WriteRatio: 0.3, Keys: 160, Dist: cluster.Uniform, PinGroups: true,
		}},
		Steps: switchCrash(1, window/4, window/2), Settle: 15 * time.Millisecond,
	})
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if res := c.CheckLinearizability(); !res.Ok {
		t.Fatalf("history across the switch crash + replacement: %+v", res)
	}
}
