package experiments

import "testing"

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
