package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"harmonia/internal/lincheck"
	"harmonia/internal/trace"
)

// TestDeterministicRuns: the same configuration and seed give the same
// run, exactly — the load report (every histogram bucket and series
// point included), the recorded history and the flight recorder's
// event log. The rack row arms every control-plane feature and drives
// a scripted migrate → AddGroup → RespecGroup under load, so the
// paths that walk Go maps on their way to scheduling events (state
// transfer, client-table merge, the rebalancer's batches, the hot-key
// manager) are all inside the comparison.
func TestDeterministicRuns(t *testing.T) {
	type outcome struct {
		rep     Report
		history []lincheck.Op
		events  []trace.Event
		script  []string // what each scripted step returned
	}
	cases := []struct {
		name   string
		cfg    Config
		spec   LoadSpec
		script func(c *Cluster, note func(string, error))
	}{
		{
			name: "vr single group",
			cfg:  Config{Protocol: VR, Replicas: 3, UseHarmonia: true, RecordHistory: true, Seed: 99},
			spec: quickSpec(),
		},
		{
			name: "rack with the control plane armed",
			cfg: Config{
				Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 4, Switches: 2,
				AutoRebalance: true, HotKeys: true, Trace: trace.Config{SampleEvery: 4},
				RecordHistory: true, DropProb: 0.01, Seed: 5,
			},
			spec: LoadSpec{
				Mode: Closed, Clients: 32, Duration: 24 * time.Millisecond, Warmup: 2 * time.Millisecond,
				WriteRatio: 0.1, Keys: 64, Dist: Zipf12,
			},
			script: func(c *Cluster, note func(string, error)) {
				c.Engine().After(3*time.Millisecond, func() {
					_, err := c.StartSlotMigration(c.slotsOf(0)[0], 1)
					note("migrate", err)
				})
				c.Engine().After(8*time.Millisecond, func() {
					_, _, err := c.AddGroup(GroupSpec{Protocol: Chain, Replicas: 3})
					note("add", err)
				})
				c.Engine().After(15*time.Millisecond, func() {
					_, err := c.StartRespecGroup(2, GroupSpec{Protocol: VR, Replicas: 3})
					note("respec", err)
				})
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func() outcome {
				var out outcome
				c := New(tc.cfg)
				if tc.script != nil {
					tc.script(c, func(step string, err error) {
						out.script = append(out.script, fmt.Sprintf("%s@%d: %v", step, c.Engine().Now(), err))
					})
				}
				out.rep = c.RunLoad(tc.spec)
				c.RunFor(10 * time.Millisecond) // let the script's handoffs settle
				out.history, out.events = c.History(), c.Events()
				return out
			}
			a, b := run(), run()
			if a.rep.Ops == 0 || len(a.history) == 0 {
				t.Fatalf("nothing ran: %d ops, %d history entries", a.rep.Ops, len(a.history))
			}
			if tc.script != nil {
				// The comparison is only worth its name if the control
				// plane actually ran: every scripted step admitted, and
				// the rebalancer and hot-key manager both acted.
				if len(a.script) != 3 {
					t.Fatalf("script ran %d of 3 steps: %v", len(a.script), a.script)
				}
				for _, step := range a.script {
					if !strings.HasSuffix(step, "<nil>") {
						t.Fatalf("scripted step refused: %s", step)
					}
				}
				seen := make(map[trace.EventKind]bool)
				for _, e := range a.events {
					seen[e.Kind] = true
				}
				for _, k := range []trace.EventKind{trace.EvMigrationFlip, trace.EvTopoEpoch, trace.EvRebalanceTick, trace.EvHotPromote, trace.EvHotRefresh} {
					if !seen[k] {
						t.Fatalf("no %v event: the run did not exercise that path", k)
					}
				}
			}
			if !reflect.DeepEqual(a.script, b.script) {
				t.Errorf("scripted steps differ:\n%v\n%v", a.script, b.script)
			}
			if !reflect.DeepEqual(a.rep, b.rep) {
				t.Errorf("reports differ: %d ops / %d retries vs %d / %d", a.rep.Ops, a.rep.Retries, b.rep.Ops, b.rep.Retries)
			}
			if !reflect.DeepEqual(a.history, b.history) {
				t.Errorf("histories differ (%d vs %d ops)", len(a.history), len(b.history))
			}
			if !reflect.DeepEqual(a.events, b.events) {
				t.Errorf("flight-recorder logs differ (%d vs %d events)", len(a.events), len(b.events))
			}
		})
	}
}
