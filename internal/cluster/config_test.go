package cluster

import (
	"reflect"
	"testing"
	"time"

	"harmonia/internal/rebalance"
	"harmonia/internal/workload"
)

// TestPaperCalibrationConstants pins the calibration the options
// became: every constant, and resolve() of a zero Config, equals what
// the settable fields used to default to — so no simulated number
// moved when they stopped being settable.
func TestPaperCalibrationConstants(t *testing.T) {
	// The server costs were derived at run time from the worker count
	// and the paper's per-server rates (§9.1), truncating to the ns.
	perOp := func(mqps float64) time.Duration {
		return time.Duration(float64(serverWorkers) / (mqps * 1e6) * float64(time.Second))
	}
	durations := []struct {
		name      string
		got, want time.Duration
	}{
		{"readCost", readCost, perOp(0.92)},
		{"readCost", readCost, 8695 * time.Nanosecond},
		{"writeCost", writeCost, perOp(0.80)},
		{"writeCost", writeCost, 10 * time.Microsecond},
		{"controlCost", controlCost, 2 * time.Microsecond},
		{"linkLatency", linkLatency, 5 * time.Microsecond},
		{"leaseDuration", leaseDuration, 50 * time.Millisecond},
		{"retryTimeout", retryTimeout, 2 * time.Millisecond},
		{"dropBackoff", dropBackoff, time.Microsecond},
		{"syncEvery", syncEvery, time.Millisecond},
		{"sweepInterval", sweepInterval, 10 * time.Millisecond},
	}
	for _, d := range durations {
		if d.got != d.want {
			t.Errorf("%s = %v, want %v", d.name, d.got, d.want)
		}
	}
	if serverWorkers != 8 || serverShards != 8 {
		t.Errorf("server model %d workers × %d shards, want 8 × 8", serverWorkers, serverShards)
	}

	var cfg Config
	specs := cfg.resolve()
	// One unassisted 3-replica primary-backup server set: reads all land
	// on the primary, so the weight is one server's rate at 5% writes.
	weight := workload.ServiceRate(3, false, 0.05, 8/readCost.Seconds(), 8/writeCost.Seconds())
	want := Config{
		Replicas: 3, Groups: 1, Switches: 1, Stages: 3, SlotsPerStage: 64000,
		Seed:       1,
		GroupSpecs: []GroupSpec{{Protocol: PB, Replicas: 3, Weight: weight}},
		Rebalance:  rebalance.Config{}.Filled(), HotKey: rebalance.HotKeyConfig{}.Filled(),
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("resolve() of the zero Config = %+v, want %+v", cfg, want)
	}
	if wantSpec := (ResolvedSpec{GroupSpec: want.GroupSpecs[0], Harmonia: false, Workers: 8}); len(specs) != 1 || specs[0] != wantSpec {
		t.Errorf("resolved specs = %+v, want [%+v]", specs, wantSpec)
	}
	if parent := 913215.9470334749; weight != parent {
		t.Errorf("derived weight %v, the parent commit resolved %v", weight, parent)
	}
}
